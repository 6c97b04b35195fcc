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


def test_real_frontend_modules_match_the_pin():
    for suffix in PINNED_SURFACES:
        module = load_module(REPO_ROOT / "src" / suffix)
        assert not isinstance(module, Finding)
        assert check_module(module, [FrontendApiRule()]) == []
