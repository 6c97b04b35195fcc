"""Self-tests of the serving benchmark (outside tier-1).

    python -m pytest benchmarks/serving/tests -q
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]

# Before numpy is first imported, like run.py does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
for _path in (BENCH_DIR, BENCH_DIR.parents[1] / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
