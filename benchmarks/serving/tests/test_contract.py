"""BENCHMARK.json and the code's own metric tables say the same thing."""

import json
import re

from conftest import BENCH_DIR
from servingbench.cli import parse_args
from servingbench.layers import PER_LAYER
from servingbench.worker import END_TO_END
from servingbench.workloads import WORKLOADS

CONTRACT = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["command"] == ["python3", "benchmarks/serving/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/serving"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60


def test_workloads_match():
    # The driver's time budget affords two workloads at the issue's sample
    # sizes (README); every workload it runs is one the code defines.
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert CONTRACT["workloads"][0]["name"] == "chat_restore"
    for workload in CONTRACT["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match():
    listed = {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
    }
    assert listed == END_TO_END
    assert len(listed) == len(CONTRACT["end_to_end"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = listed["setup_s"]
    assert setup[:2] == ("s", "lower")
    assert setup[2] == max(bound for _, _, bound in listed.values())


def test_per_layer_metrics_match():
    listed = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]}
    assert listed == PER_LAYER
    assert len(listed) == len(CONTRACT["per_layer"]) <= 128
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert not set(listed) & set(END_TO_END)


def test_the_driver_command_line_parses():
    args = parse_args(
        ["--workload", "doc_ingest", "--seed", "5", "--seconds", "60", "--trace", "1"]
    )
    assert (args.workload, args.seed, args.trace) == ("doc_ingest", 5, 1)
    assert parse_args(["--trace"]).trace == 1
    assert parse_args([]).trace == 0
