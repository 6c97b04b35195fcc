"""Fixture: hot paths timed from outside, which the rule must accept."""

import time
from time import perf_counter

import numpy as np


def project(rows, weight, out):
    np.matmul(rows, weight, out=out)


class Drain:
    def __init__(self, clock=perf_counter):
        self._clock = clock

    def consume(self, chunk):
        # An injected clock is the caller's choice, not in-band timing.
        self.started = self._clock()
        self.install(chunk)


def timed_project(rows, weight, out):
    # Not in the manifest: a wrapper span around the hot call is fine.
    t0 = time.perf_counter()
    project(rows, weight, out)
    return time.perf_counter() - t0
