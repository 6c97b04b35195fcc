"""unused-import: the pyflakes F401 check, without ruff."""

from pathlib import Path

from repro.lint import (
    Finding,
    UnusedImportRule,
    check_module,
    check_paths,
    collect_files,
    load_module,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_bad_fixture_reports_every_unused_name(run_rules):
    findings = run_rules("unused_import_bad.py", [UnusedImportRule()])
    assert all(f.rule == "unused-import" for f in findings)
    # A dotted import binds its root; a TYPE_CHECKING import counts; a
    # noqa for another code does not waive F401.
    assert [f.message.split("'")[1] for f in findings] == [
        "json",
        "os",
        "OrderedDict",
        "Path",
        "root",
    ]
    # Reported at the alias, so one line of a multi-name import is named.
    assert findings[2].line == 7


def test_good_fixture_is_clean(run_rules):
    assert run_rules("unused_import_good.py", [UnusedImportRule()]) == []


def _check(path):
    module = load_module(path)
    assert not isinstance(module, Finding)
    return check_module(module, [UnusedImportRule()])


def test_package_init_imports_are_re_exports(tmp_path):
    source = "from json import dumps\n"
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(source)
    (tmp_path / "pkg" / "mod.py").write_text(source)
    assert _check(tmp_path / "pkg" / "__init__.py") == []
    assert [f.rule for f in _check(tmp_path / "pkg" / "mod.py")] == ["unused-import"]


def test_a_waiver_works_like_any_rule(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json  # lint: disable=unused-import -- side-effect import\n")
    assert _check(path) == []


def test_source_tree_is_clean():
    assert check_paths([SRC], [UnusedImportRule()]) == []


def test_tests_benchmarks_and_scripts_are_clean():
    """What CI's ruff F401 covers beyond src, minus the seeded fixtures."""
    files = collect_files([REPO_ROOT / d for d in ("tests", "benchmarks", "scripts")])
    findings = [
        finding
        for path in files
        if "fixtures" not in path.parts
        for finding in _check(path)
    ]
    assert findings == []
