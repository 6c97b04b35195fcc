"""Tests for the doc-freshness gate's code-reference check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

STALE = [
    "repro.simulator.pipeline",
    "repro.core.scheduler.layer_plans_for_scheme",
    "repro.core.hcache.HCacheEngine.restore_sharded",
    "repro.nowhere",
    "repro.core.partition.PartitionScheme.n_hidden.real",
    "tests/simulator/test_streams.py",
    "storage/tiering.py",
    "src/repro/baselines/kv_offload.py",
]


@pytest.fixture(scope="module")
def fixture_report():
    return check_docs.stale_references((FIXTURES / "stale_refs.md").read_text())


def test_fixture_reports_exactly_the_stale_references(fixture_report):
    assert fixture_report == STALE


@pytest.mark.parametrize(
    "name",
    [
        "repro",
        "repro.core.restoration",
        "repro.core.scheduler.hcache_timing",
        "repro.core.partition.PartitionScheme.n_hidden",
        "repro.storage.device.StorageDevice.fault_policy",
        "repro.runtime.RestoreProgress.wait_layer",
        "repro.engine.api.ServingEngine",
        "repro.DEFAULT_METHODS",
    ],
)
def test_live_names_resolve(name):
    assert check_docs.resolves(name, REPO_ROOT / "src" / "repro")


@pytest.mark.parametrize("name", [ref for ref in STALE if ref.startswith("repro")])
def test_stale_names_do_not_resolve(name):
    assert not check_docs.resolves(name, REPO_ROOT / "src" / "repro")


@pytest.mark.parametrize("doc", check_docs.REFERENCE_DOCS)
def test_live_docs_resolve(doc):
    assert check_docs.stale_references((REPO_ROOT / doc).read_text()) == []


def test_gate_passes_on_the_live_tree(capsys):
    assert check_docs.main() == 0
    assert "code references resolve" in capsys.readouterr().out
