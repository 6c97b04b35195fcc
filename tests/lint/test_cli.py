"""CLI contract: exit codes 0 (clean) / 1 (findings) / 2 (usage error)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_one_and_render(capsys):
    assert main([str(FIXTURES / "exception_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "exception-safety" in out
    assert "hint:" in out
    assert "findings" in out


def test_missing_path_exits_two(capsys):
    assert main(["/no/such/path"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_unknown_rule_exits_two(capsys):
    assert main(["--rule", "no-such-rule", str(FIXTURES)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rule_filter_limits_scope(capsys):
    # api_bad.py violates only api-surface; filtered to another rule the
    # file is clean.
    assert main(["--rule", "guarded-by", str(FIXTURES / "api_bad.py")]) == 0
    assert main(["--rule", "api-surface", str(FIXTURES / "api_bad.py")]) == 1


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "guarded-by",
        "commit-point",
        "hot-path",
        "exception-safety",
        "api-surface",
        "frontend-api",
        "unused-import",
        "undefined-name",
    ):
        assert rule in out


def test_module_entry_point_runs_as_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
