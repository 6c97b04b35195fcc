"""Command line of the serving benchmark.

``--workload W`` runs that workload in this process and ends with the one
JSON line the driver reads.  Without it, every workload runs in a fresh
subprocess of its own (so ``peak_rss_mb`` and ``setup_s`` are per
workload) and a combined report is printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

from . import stats
from .worker import RESULTS_DIR, TBT_TAIL, TTFT_TAIL, RunResult, run_workload
from .workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
HISTORY_FILE = BENCH_DIR / "history.jsonl"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="accepted because the growth driver passes it, and ignored: the work of a "
        "run is fixed by the script (MEASURED_PASSES passes), so that counts repeat",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: install the span wrappers on every second pass and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny model, one pass: checks the plumbing in seconds, measures nothing",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append this run's medians and spreads to history.jsonl (all workloads only)",
    )
    return parser.parse_args(argv)


def format_report(result: RunResult) -> str:
    lines = [
        f"== {result.workload}  seed {result.seed}  passes {result.passes}"
        f"{'  traced' if result.trace else ''}{'  SMOKE' if result.smoke else ''} =="
    ]
    for phase, counts in result.phases.items():
        lines.append(
            f"  {phase:<9} sent {counts['sent']}  succeeded {counts['succeeded']}  "
            f"failed {counts['failed']}  (ties {counts['ties']})"
        )
    for title, metrics in (
        ("end to end", result.end_to_end),
        ("tails (reported, not part of the contract)", result.tails),
        ("per layer", result.per_layer),
    ):
        if not metrics:
            continue
        lines.append(f"  -- {title}: median over passes [min .. max]")
        for name, m in metrics.items():
            lines.append(
                f"  {name:<44} {m['value']:>14.6g} {m['unit']:<7}"
                f"[{m['min']:.6g} .. {m['max']:.6g}]"
            )
    for (name, share), q in zip(result.modality.items(), (TTFT_TAIL, TBT_TAIL)):
        verdict = "ok" if stats.modality_ok(share, q) else f"p{q:g} ON A MODE BOUNDARY"
        lines.append(f"  {name:<44} {share:>14.4f} share  {verdict}")
    for key, value in result.notes.items():
        if not isinstance(value, list) or len(value) <= 8:
            lines.append(f"  note {key}: {value}")
    for problem in result.problems:
        lines.append(f"  PROBLEM {problem}")
    lines.append(f"  correct: {result.correct}")
    return "\n".join(lines)


def result_path(workload: str, seed: int, trace: bool) -> Path:
    """Where a run's full result (every per-pass value) is stored."""
    kind = "traced" if trace else "run"
    return RESULTS_DIR / f"result-{kind}-{workload}-seed{seed}.json"


def run_one(args: argparse.Namespace, process_start: float) -> int:
    result = run_workload(
        args.workload, args.seed, bool(args.trace), args.smoke, process_start
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = result_path(result.workload, result.seed, result.trace)
    path.write_text(json.dumps(asdict(result), indent=1))
    print(format_report(result))
    print(result.contract_line())
    return 0 if result.correct else 1


def host_fingerprint() -> dict[str, Any]:
    import numpy

    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_commit() -> str:
    """HEAD's short hash, ``+dirty`` with uncommitted changes; ``unknown`` outside git."""
    try:
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=BENCH_DIR, capture_output=True, text=True, check=True
            ).stdout.strip()

        dirty = "+dirty" if git("status", "--porcelain") else ""
        return git("rev-parse", "--short", "HEAD") + dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args: argparse.Namespace) -> int:
    """One fresh subprocess per workload; returns the worst exit code."""
    script = BENCH_DIR / "run.py"
    worst = 0
    summary: dict[str, Any] = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        # The report; the driver's JSON line is for --workload runs.
        report, _, last = done.stdout.rstrip("\n").rpartition("\n")
        print(report if last.startswith("{") else done.stdout, end="\n")
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        path = result_path(name, args.seed, bool(args.trace))
        if done.returncode in (0, 1) and path.exists():
            summary[name] = json.loads(path.read_text())
    if args.record and not args.smoke and worst == 0:
        entry = {
            "commit": git_commit(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "host": host_fingerprint(),
            "seed": args.seed,
            "trace": bool(args.trace),
            # The calibration kernel before and after each workload's passes
            # says which phase of the host the numbers below were taken in.
            "host_calib_ms": {
                name: run["notes"]["host_calib_ms"] for name, run in summary.items()
            },
            "workloads": {
                name: {
                    metric: {
                        "unit": m["unit"],
                        "value": m["value"],
                        "spread": stats.relative_spread(m["per_pass"]),
                    }
                    for metric, m in (
                        run["per_layer"] if args.trace else run["end_to_end"] | run["tails"]
                    ).items()
                }
                for name, run in summary.items()
            },
        }
        with HISTORY_FILE.open("a") as handle:
            handle.write(json.dumps(entry) + "\n")
        print(f"recorded to {HISTORY_FILE}")
    return worst


def main(process_start: float, argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        return run_one(args, process_start)
    return run_all(args)

