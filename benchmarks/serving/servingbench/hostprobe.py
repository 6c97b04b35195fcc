"""A fixed calibration kernel that brackets the measured passes.

The machine is shared and drifts between faster and slower phases.  The
kernel is work the benchmark owns and no change to the program can touch — a
GEMM (native compute) and a reduction over its result — so a run whose
timings moved together with ``host.calib_ms_before`` / ``host.calib_ms_after``
met a different host, not a different program.  It is reported, never used
to correct a metric.
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((384, 384)).astype(np.float32)
_B = _RNG.standard_normal((384, 384)).astype(np.float32)
REPEATS = 400


def calibrate() -> float:
    """Milliseconds the fixed kernel takes right now (~0.4 s)."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REPEATS):
        acc += float((_A @ _B).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed * 1e3
