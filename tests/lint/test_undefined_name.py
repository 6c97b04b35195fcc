"""undefined-name: the pyflakes F821 check, without ruff."""

from pathlib import Path

from repro.lint import (
    Finding,
    UndefinedNameRule,
    check_module,
    check_paths,
    collect_files,
    load_module,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_bad_fixture_reports_every_undefined_name(run_rules):
    findings = run_rules("undefined_name_bad.py", [UndefinedNameRule()])
    assert all(f.rule == "undefined-name" for f in findings)
    # A deleted function's caller, a class-body name read in a method, a
    # leaked comprehension variable, a quoted annotation, a typo, and a
    # name no enclosing function binds.
    assert [(f.line, f.message.split("'")[1]) for f in findings] == [
        (10, "partition_kv_heads"),
        (18, "RUNWAY"),
        (24, "v"),
        (27, "KVCache"),
        (36, "cuont"),
        (41, "outer_only"),
    ]


def test_good_fixture_is_clean(run_rules):
    assert run_rules("undefined_name_good.py", [UndefinedNameRule()]) == []


def _check(path):
    module = load_module(path)
    assert not isinstance(module, Finding)
    return check_module(module, [UndefinedNameRule()])


def test_a_star_import_skips_the_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from os.path import *\n\nprint(join)\n")
    assert _check(path) == []


def test_a_waiver_works_like_any_rule(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("print(injected)  # lint: disable=undefined-name -- set by exec\n")
    assert _check(path) == []


def test_source_tree_is_clean():
    assert check_paths([SRC], [UndefinedNameRule()]) == []


def test_tests_benchmarks_and_scripts_are_clean():
    """What CI's ruff F821 covers beyond src, minus the seeded fixtures."""
    files = collect_files([REPO_ROOT / d for d in ("tests", "benchmarks", "scripts")])
    findings = [
        finding
        for path in files
        if "fixtures" not in path.parts
        for finding in _check(path)
    ]
    assert findings == []
