#!/usr/bin/env python3
"""Alternating parent/change pairs of the serving benchmark, and their verdict.

    python scripts/ab_pairs.py PARENT CHANGE --workload doc_ingest --seeds 0-9 \\
        [--rows runs.jsonl]
    python scripts/ab_pairs.py --from-rows runs.jsonl [more.jsonl ...]

PARENT and CHANGE are two checkouts of this repository.  For each seed the
script runs ``benchmarks/serving/run.py --workload W --seed S --trace 0`` in
each tree, one after the other, and alternates which tree goes first.  It
prints one row per run (and appends it to ``--rows`` as a JSON line, so an
interrupted series keeps what it measured).  Then, per end-to-end metric of
``BENCHMARK.json``, it prints each side's median and quartiles, the change
of the median in %, and the change's wins / ties / losses over the pairs in
the direction ``BENCHMARK.json`` gives.

A run that exits 1 (one of ``run.py``'s own checks failed: a failed
request, an inexact restore sample, a token mismatch) still prints its
row, with ``correct`` false, and counts in its workload's header.  Any
such run on the change side ends the summary with a ``REFUSED`` line and
exits 1: the benchmark's contract refuses a change whose run exits
non-zero, whatever its metrics say.

Verdicts follow the choosing-metrics rule: ``GAIN`` only when the change
wins at least 9/10 of the pairs, its median beats the parent's by more
than the parent's interquartile range, and no more of its requests failed
than the parent's — read ``too few pairs`` instead below ten pairs, where
one loss in ten cannot be told from none; ``WORSE`` when the change's median
is worse than the parent's by more than the metric's bound; ``unresolved``
when the parent's own interquartile range is wider than the bound; else
``within bound``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: Fewest pairs a ``GAIN`` verdict is read from (its win share is 9 of 10).
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"0-9,14"`` -> ``[0, 1, ..., 9, 14]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; returns its contract line, parsed."""
    command = [
        sys.executable, str(tree / "benchmarks" / "serving" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    last = done.stdout.rstrip("\n").rpartition("\n")[2]
    # Exit 1 is a finished run with a wrong output: its row still counts,
    # marked incorrect.
    if done.returncode not in (0, 1) or not last.startswith("{"):
        raise SystemExit(
            f"{tree}: {workload} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    line = json.loads(last)
    line["correct"] = bool(line["correct"]) and done.returncode == 0
    return line


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], rows_path: Path | None):
    """Yield one row per run, parent and change alternating who goes first."""
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            line = run_once(trees[side], workload, seed)
            row = {
                "workload": workload, "seed": seed, "side": side, "first": position == 0,
                "correct": line["correct"], "attempted": line["attempted"],
                "failed": line["failed"],
                "metrics": {name: m["value"] for name, m in line["metrics"].items()},
            }
            if rows_path is not None:
                with rows_path.open("a") as handle:
                    handle.write(json.dumps(row) + "\n")
            yield row


def header(names: list[str]) -> str:
    return f"{'workload':<13}{'seed':>4}  {'side':<6} ord  correct  fail/n " + "  ".join(
        f"{n[:10]:>10}" for n in names
    )


def format_row(row: dict, names: list[str]) -> str:
    values = "  ".join(f"{row['metrics'].get(n, float('nan')):>10.5g}" for n in names)
    return (
        f"{row['workload']:<13}{row['seed']:>4}  {row['side']:<6} "
        f"{'1st' if row['first'] else '2nd'}  {str(row['correct']):<7}  "
        f"{row['failed']}/{row['attempted']:<5} {values}"
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def refused_runs(rows: list[dict]) -> int:
    """Change-side runs that exited non-zero: each one refuses the change."""
    return sum(r["side"] == "change" and not r["correct"] for r in rows)


def summarize(rows: list[dict], contract: list[dict]) -> list[str]:
    """The per-metric verdict lines of every workload in ``rows``."""
    lines: list[str] = []
    for workload in sorted({r["workload"] for r in rows}):
        by_seed: dict[int, dict[str, dict]] = {}
        for row in rows:
            if row["workload"] == workload:
                by_seed.setdefault(row["seed"], {})[row["side"]] = row
        pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
        failed = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
        attempted = {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES}
        incorrect = {
            s: sum(r["workload"] == workload and r["side"] == s and not r["correct"] for r in rows)
            for s in SIDES
        }
        lines.append(
            f"== {workload}: {len(pairs)} pairs; failed parent "
            f"{failed['parent']}/{attempted['parent']}, change "
            f"{failed['change']}/{attempted['change']}; incorrect runs parent "
            f"{incorrect['parent']}, change {incorrect['change']}"
        )
        lines.append(
            f"  {'metric':<24}{'parent q1 / med / q3':>30}{'change q1 / med / q3':>30}"
            f"{'change':>9}  w/t/l    verdict"
        )
        for spec in contract:
            name, lower = spec["name"], spec["better"] == "lower"
            if not pairs or name not in pairs[0]["parent"]["metrics"]:
                continue
            values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
            (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in SIDES)
            wins = ties = 0
            for p, c in zip(values["parent"], values["change"]):
                ties += p == c
                wins += (c < p) if lower else (c > p)
            losses = len(pairs) - wins - ties
            gain = (pm - cm) if lower else (cm - pm)
            if (
                wins >= 0.9 * len(pairs)
                and gain > p3 - p1
                and failed["change"] <= failed["parent"]
            ):
                verdict = "GAIN" if len(pairs) >= MIN_PAIRS else "too few pairs"
            elif -gain > spec["bound"] * abs(pm):
                verdict = "WORSE"
            elif p3 - p1 > spec["bound"] * abs(pm):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            move = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
            lines.append(
                f"  {name:<24}{p1:>10.5g}{pm:>10.5g}{p3:>10.5g}{c1:>10.5g}{cm:>10.5g}"
                f"{c3:>10.5g}{move:>9}  {wins}/{ties}/{losses}  {verdict}"
            )
    refused = refused_runs(rows)
    if refused:
        lines.append(
            f"REFUSED: {refused} change run(s) exited non-zero (correct: false); "
            "the benchmark refuses the change whatever its metrics"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--rows", type=Path, help="append each run's row here (JSON lines)")
    parser.add_argument(
        "--from-rows", type=Path, nargs="+", help="summarize saved rows instead of running"
    )
    args = parser.parse_args(argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in contract]
    if args.from_rows:
        rows = [
            json.loads(line)
            for path in args.from_rows
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        print(header(names))
        print("\n".join(format_row(row, names) for row in rows))
    elif args.parent and args.change and args.workload:
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        rows = []
        print(header(names), flush=True)
        for row in run_pairs(trees, args.workload, args.seeds, args.rows):
            rows.append(row)
            print(format_row(row, names), flush=True)
    else:
        parser.error("give PARENT CHANGE --workload W, or --from-rows FILE")
    print("\n".join(summarize(rows, contract)))
    return 1 if refused_runs(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
