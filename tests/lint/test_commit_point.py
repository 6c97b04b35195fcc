"""commit-point: journal records obey the §6.2 durability ordering."""

from repro.lint import CommitPointRule


def test_bad_fixture_reports_each_reordering(run_rules):
    findings = run_rules("commit_bad.py", [CommitPointRule()])
    assert [f.rule for f in findings] == ["commit-point"] * 4
    messages = [f.message for f in findings]
    assert any("'chunk' record appended before" in m for m in messages)
    assert any("'seal' record appended before" in m for m in messages)
    assert any("'free' record appended after a deletion" in m for m in messages)
    assert any("'chunk' record appended after a deletion" in m for m in messages)


def test_branch_missing_write_is_flagged_at_the_append(run_rules):
    findings = run_rules("commit_bad.py", [CommitPointRule()])
    seal = next(f for f in findings if "'seal'" in f.message)
    # The finding anchors to the journal.append call, not the if.
    assert seal.line == 14


def test_good_fixture_is_clean(run_rules):
    # Covers: straight-line order, write-in-loop before seal, try/except
    # around the append, the nested flush closure, delete after the
    # replacement's record, a deleting handler that re-raises,
    # free-before-delete, and metadata-only records.
    assert run_rules("commit_good.py", [CommitPointRule()]) == []
