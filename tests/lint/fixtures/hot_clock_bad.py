"""Fixture: clock reads inside hot-path functions (4 seeded).

The test injects a manifest listing ``project`` and ``Drain.consume``.
"""

import time
from time import monotonic, perf_counter

import numpy as np


def project(rows, weight, out, stats):
    t0 = time.perf_counter()
    np.matmul(rows, weight, out=out)
    stats.gemm_s += perf_counter() - t0


class Drain:
    def consume(self, chunk, stats):
        started = time.time()
        self.install(chunk)
        stats.install_s += time.monotonic() - started
        return monotonic
