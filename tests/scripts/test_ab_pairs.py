"""Tests for the parent/change pair runner's summary (scripts/ab_pairs.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

CONTRACT = [
    {"name": "ttft_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "req_per_s", "better": "higher", "bound": 0.25},
    {"name": "token_match_rate", "better": "higher", "bound": 0.02},
]


def canned_rows(parent, change, *, workload="doc_ingest", failed=(0, 0)):
    """One row per run from per-seed ``{metric: value}`` dicts."""
    rows = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, metrics, n_failed in (("parent", p, failed[0]), ("change", c, failed[1])):
            rows.append({
                "workload": workload, "seed": seed, "side": side,
                "first": (side == "parent") == (seed % 2 == 0),
                "correct": True, "attempted": 48, "failed": n_failed, "metrics": metrics,
            })
    return rows


def verdicts(lines):
    """``{metric: (w/t/l, verdict)}`` from the summary lines."""
    out = {}
    for line in lines[2:]:
        fields = line.split()
        out[fields[0]] = (fields[8], " ".join(fields[9:]))
    return out


def test_parse_seeds():
    assert ab_pairs.parse_seeds("0-3,7,10-11") == [0, 1, 2, 3, 7, 10, 11]


def test_quartiles_of_one_value():
    assert ab_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_clear_gain_wins_every_pair():
    parent = [{"ttft_p50_ms": 200.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    change = [{"ttft_p50_ms": 180.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    lines = ab_pairs.summarize(canned_rows(parent, change), CONTRACT)
    assert lines[0] == (
        "== doc_ingest: 10 pairs; failed parent 0/480, change 0/480; "
        "incorrect runs parent 0, change 0"
    )
    got = verdicts(lines)
    assert got["ttft_p50_ms"] == ("10/0/0", "GAIN")
    assert got["req_per_s"] == ("0/10/0", "within bound")
    assert got["token_match_rate"] == ("0/10/0", "within bound")
    assert "-9.8%" in lines[2]  # 204.5 -> 184.5 ms


def test_more_failures_void_a_gain():
    parent = [{"ttft_p50_ms": 200.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    change = [{"ttft_p50_ms": 180.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    got = verdicts(ab_pairs.summarize(canned_rows(parent, change, failed=(0, 1)), CONTRACT))
    assert got["ttft_p50_ms"] == ("10/0/0", "within bound")


def test_eight_wins_of_ten_is_no_gain():
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 10
    change = [{"ttft_p50_ms": 180.0 if s < 8 else 210.0, "req_per_s": 4.0,
               "token_match_rate": 1.0} for s in range(10)]
    got = verdicts(ab_pairs.summarize(canned_rows(parent, change), CONTRACT))
    assert got["ttft_p50_ms"] == ("8/0/2", "within bound")


def test_fewer_than_ten_clear_wins_are_too_few_pairs():
    for n, verdict in ((3, "too few pairs"), (6, "too few pairs"), (10, "GAIN")):
        parent = [{"ttft_p50_ms": 200.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
                  for s in range(n)]
        change = [{"ttft_p50_ms": 160.0 + s, "req_per_s": 4.0, "token_match_rate": 1.0}
                  for s in range(n)]
        got = verdicts(ab_pairs.summarize(canned_rows(parent, change), CONTRACT))
        assert got["ttft_p50_ms"] == (f"{n}/0/0", verdict)
        assert got["req_per_s"] == (f"0/{n}/0", "within bound")


def test_gap_inside_the_parents_spread_is_no_gain():
    parent = [{"ttft_p50_ms": 150.0 + 5 * s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    change = [{"ttft_p50_ms": 148.0 + 5 * s, "req_per_s": 4.0, "token_match_rate": 1.0}
              for s in range(10)]
    got = verdicts(ab_pairs.summarize(canned_rows(parent, change), CONTRACT))
    assert got["ttft_p50_ms"] == ("10/0/0", "within bound")


def test_higher_is_better_and_worse_beyond_the_bound():
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 10
    change = [{"ttft_p50_ms": 200.0, "req_per_s": 2.9, "token_match_rate": 0.97}] * 10
    got = verdicts(ab_pairs.summarize(canned_rows(parent, change), CONTRACT))
    assert got["req_per_s"] == ("0/0/10", "WORSE")
    assert got["token_match_rate"] == ("0/0/10", "WORSE")


def test_wide_parent_spread_is_unresolved():
    parent = [{"ttft_p50_ms": 100.0 if s % 2 else 200.0, "req_per_s": 4.0,
               "token_match_rate": 1.0} for s in range(10)]
    change = [{"ttft_p50_ms": 160.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 10
    got = verdicts(ab_pairs.summarize(canned_rows(parent, change), CONTRACT))
    assert got["ttft_p50_ms"] == ("5/0/5", "unresolved")


def test_unpaired_runs_and_failures_counted():
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 3
    rows = canned_rows(parent, parent, failed=(1, 2))
    rows.append(dict(rows[0], seed=99))  # its change run never finished
    lines = ab_pairs.summarize(rows, CONTRACT)
    assert lines[0] == (
        "== doc_ingest: 3 pairs; failed parent 3/144, change 6/144; "
        "incorrect runs parent 0, change 0"
    )


def test_from_rows_prints_every_run_and_the_summary(tmp_path, capsys):
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 2
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in canned_rows(parent, parent)))
    assert ab_pairs.main(["--from-rows", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("doc_ingest") for line in out) == 4
    assert [line.split()[0] for line in out[-3:]] == [
        "ttft_p50_ms", "req_per_s", "token_match_rate"
    ]


def test_an_incorrect_change_run_is_refused(tmp_path, capsys):
    """A run that exited 1 keeps its row, is counted per side, and one on
    the change side ends the summary with REFUSED and exit 1 — even
    unpaired, and while every metric reads within bound."""
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 3
    rows = canned_rows(parent, parent)
    rows[0]["correct"] = False  # seed 0, parent
    rows.append(dict(rows[1], seed=99, correct=False))  # an unpaired change run
    lines = ab_pairs.summarize(rows, CONTRACT)
    assert lines[0].endswith("incorrect runs parent 1, change 1")
    assert all(v == "within bound" for _, v in verdicts(lines[:-1]).values())
    assert lines[-1].startswith("REFUSED: 1 change run(s)")
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert ab_pairs.main(["--from-rows", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    runs = [line.split() for line in out if line.startswith("doc_ingest")]
    assert len(runs) == 7
    assert [fields[4] for fields in runs] == ["False", "True", "True", "True", "True", "True",
                                              "False"]
    assert out[-1].startswith("REFUSED")


def test_an_incorrect_parent_run_alone_is_no_refusal(tmp_path):
    parent = [{"ttft_p50_ms": 200.0, "req_per_s": 4.0, "token_match_rate": 1.0}] * 2
    rows = canned_rows(parent, parent)
    rows[0]["correct"] = False
    lines = ab_pairs.summarize(rows, CONTRACT)
    assert lines[0].endswith("incorrect runs parent 1, change 0")
    assert not any(line.startswith("REFUSED") for line in lines)
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert ab_pairs.main(["--from-rows", str(path)]) == 0


def test_a_run_that_exits_one_is_incorrect_whatever_it_printed(tmp_path):
    script = tmp_path / "benchmarks" / "serving" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(
        "import json, sys\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n"
        "sys.exit(1)\n"
    )
    assert ab_pairs.run_once(tmp_path, "doc_ingest", 0)["correct"] is False
