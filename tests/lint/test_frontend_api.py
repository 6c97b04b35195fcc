"""frontend-api: pinned serving surface."""

from pathlib import Path

from repro.lint import Finding, FrontendApiRule, check_module, load_module
from repro.lint.rules.frontend_api import PINNED_SURFACES

REPO_ROOT = Path(__file__).resolve().parents[2]


def _check_source(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    module = load_module(path)
    assert not isinstance(module, Finding)
    return check_module(module, [FrontendApiRule()])


def test_good_fixture_is_clean(run_rules):
    assert run_rules("frontend_good.py", [FrontendApiRule()]) == []


def test_pinned_surface_drift_is_reported(tmp_path):
    source = '__all__ = ["ServingRequest", "Rogue"]\n\nServingRequest = Rogue = object\n'
    findings = _check_source(tmp_path, "repro/engine/api.py", source)
    assert [f.rule for f in findings] == ["frontend-api"]
    assert "unexpected: Rogue" in findings[0].message
    assert "missing: IterationResult" in findings[0].message


def test_missing_all_in_pinned_module_is_reported(tmp_path):
    findings = _check_source(tmp_path, "repro/engine/frontend.py", "x = 1\n")
    assert [f.rule for f in findings] == ["frontend-api"]
    assert "must declare the pinned __all__" in findings[0].message


def test_loop_module_reaching_behind_the_engine_seam_is_reported(tmp_path):
    real = (REPO_ROOT / "src/repro/engine/frontend.py").read_text()
    leaky = real + (
        "\nfrom repro.models.kv_cache import KVCache as _KVCache\n"
        "def f():\n    import repro.runtime.executor\n"
        "from repro import core as _core\n"
        "from repro.state.store import BlockStateStore as _Store\n"
    )
    findings = _check_source(tmp_path, "repro/engine/frontend.py", leaky)
    assert [f.rule for f in findings] == ["frontend-api"] * 3
    messages = " ".join(f.message for f in findings)
    for name in ("repro.models.kv_cache", "repro.runtime.executor", "repro.core"):
        assert f"imports {name}," in messages
    # The seam binds the loop only: the engines import those packages freely.
    assert _check_source(tmp_path, "repro/engine/numeric_engine.py", leaky) == []


def test_real_frontend_modules_match_the_pin():
    for suffix in PINNED_SURFACES:
        module = load_module(REPO_ROOT / "src" / suffix)
        assert not isinstance(module, Finding)
        assert check_module(module, [FrontendApiRule()]) == []
