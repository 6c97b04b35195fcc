#!/usr/bin/env python3
"""Serving benchmark v1 — see benchmarks/serving/README.md.

    python benchmarks/serving/run.py [--workload W] [--seed N] [--trace]

Drives the real ``ServingFrontend.submit/step`` in a closed loop over a
GEMM-dominated model, prints every metric by name and unit, checks the
outputs, and exits non-zero when a check fails.
"""

import os
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

#: One BLAS thread: nproc is 2 — one driver thread plus restore/IO threads.
#: Must be in the environment before numpy is first imported.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    os.environ.update(BLAS_THREADS)
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    if not (src / "repro").is_dir():
        # Nothing to measure: the benchmark drives the repository's own code.
        print(f"run.py: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(here))
    from servingbench.cli import main as cli_main

    return cli_main(PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
