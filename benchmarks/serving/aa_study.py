#!/usr/bin/env python3
"""A/A study: how far do sets of runs of the same code disagree?

    python benchmarks/serving/aa_study.py [--sets 5] [--runs 4]

Runs ``--sets`` back-to-back sets of ``--runs`` full runs each (every
workload, one fresh process and one new seed per run), the way the growth
driver compares a change with its parent: a set's value of a metric is the
median over its runs.  Prints, per workload x end-to-end metric, the spread
``(max - min) / median`` of the set values against the metric's bound, and
beside it the quartile spread ``(Q3 - Q1) / median`` of all single runs,
which is what the driver judges a benchmark's steadiness by; then the
modality rule for every run.  The tables in README.md are this script's
output.  Exits non-zero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=5)
    parser.add_argument("--runs", type=int, default=4, help="runs per set")
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 1:
        parser.error("a spread needs at least two sets of at least one run")

    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(BENCH_DIR.parents[1] / "src"))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from servingbench import stats
    from servingbench.cli import result_path
    from servingbench.layers import TBT_TAIL, TTFT_TAIL
    from servingbench.worker import END_TO_END, TAILS
    from servingbench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    #: sets[name][i] is the list of result files' contents of set i.
    sets: dict[str, list[list[dict]]] = {name: [[] for _ in range(args.sets)] for name in names}
    failed = False
    for index in range(args.sets):
        for run in range(args.runs):
            seed = args.seed_base + index * args.runs + run
            for name in names:
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--trace", "0"],
                    capture_output=True, text=True,
                )
                if done.returncode != 0:
                    failed = True
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                    continue
                sets[name][index].append(
                    json.loads(result_path(name, seed, False).read_text())
                )
                print(f"set {index} run {run} {name} seed {seed} done", file=sys.stderr)

    print(f"A/A study: {args.sets} sets of {args.runs} runs, one seed per run\n")
    print("| workload | metric | unit | median | (max-min)/median of set medians "
          "| (Q3-Q1)/median of runs | bound | verdict |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    over = 0
    for name in names:
        bounds = {metric: bound for metric, (_, _, bound) in END_TO_END.items()}
        for metric, unit in ({m: u for m, (u, _, _) in END_TO_END.items()} | TAILS).items():
            per_set = [
                [(run["end_to_end"] | run["tails"])[metric]["value"] for run in runs]
                for runs in sets[name]
            ]
            if not all(per_set):
                continue
            set_values = [statistics.median(values) for values in per_set]
            between = stats.relative_spread(set_values)
            within = stats.iqr_spread([value for values in per_set for value in values])
            bound = bounds.get(metric)
            if bound is None:
                verdict = "demoted"
            elif max(between, within) > bound:
                verdict = "OVER BOUND"
                over += 1
            else:
                verdict = "ok"
            print(f"| {name} | {metric} | {unit} | {statistics.median(set_values):.6g} | "
                  f"{between:.1%} | {within:.1%} | "
                  f"{'-' if bound is None else format(bound, '.0%')} | {verdict} |")
    print(f"\n| workload | runs | share of TTFT above 2x median (p{TTFT_TAIL:g}) "
          f"| share of gaps above 2x median (p{TBT_TAIL:g}) "
          "| runs with a tail on a mode boundary |")
    print("|---|---:|---:|---:|---:|")
    for name in names:
        runs = [run for group in sets[name] for run in group]
        if not runs:
            continue
        ttft = [run["modality"]["ttft_share_above_2x_median"] for run in runs]
        tbt = [run["modality"]["tbt_share_above_2x_median"] for run in runs]
        on_boundary = sum(
            not (stats.modality_ok(a, TTFT_TAIL) and stats.modality_ok(b, TBT_TAIL))
            for a, b in zip(ttft, tbt)
        )
        print(f"| {name} | {len(runs)} | {min(ttft):.3f} - {max(ttft):.3f} | "
              f"{min(tbt):.3f} - {max(tbt):.3f} | {on_boundary} |")
    print(f"\n{over} metric x workload pairs over their bound; "
          f"{'some runs failed' if failed else 'every run passed its checks'}")
    return 1 if failed or over else 0


if __name__ == "__main__":
    sys.exit(main())
