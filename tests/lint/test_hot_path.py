"""hot-path: manifest functions stay allocation-free and read no clock."""

from repro.lint import HotPathRule

BAD_MANIFEST = {
    "fixtures/hot_bad.py": frozenset({"step", "Decoder.advance", "Decoder.gone"})
}
GOOD_MANIFEST = {"fixtures/hot_good.py": frozenset({"step", "Decoder.advance"})}
CLOCK_BAD_MANIFEST = {"fixtures/hot_clock_bad.py": frozenset({"project", "Drain.consume"})}
CLOCK_GOOD_MANIFEST = {"fixtures/hot_clock_good.py": frozenset({"project", "Drain.consume"})}


def test_bad_fixture_reports_every_allocation(run_rules):
    findings = run_rules("hot_bad.py", [HotPathRule(manifest=BAD_MANIFEST)])
    assert all(f.rule == "hot-path" for f in findings)
    messages = [f.message for f in findings]
    assert any("np.concatenate" in m for m in messages)
    assert any(".copy()" in m for m in messages)
    assert any("np.ascontiguousarray" in m for m in messages)
    assert any("np.vstack" in m for m in messages)
    assert any("grows list 'parts' inside a loop" in m for m in messages)


def test_stale_manifest_entry_is_flagged(run_rules):
    findings = run_rules("hot_bad.py", [HotPathRule(manifest=BAD_MANIFEST)])
    assert any(
        "manifest names 'Decoder.gone'" in f.message for f in findings
    ), "renaming a hot function without updating the manifest must be loud"


def test_good_fixture_is_clean_including_cold_helpers(run_rules):
    assert run_rules("hot_good.py", [HotPathRule(manifest=GOOD_MANIFEST)]) == []


def test_clock_reads_in_hot_functions_are_reported(run_rules):
    findings = run_rules("hot_clock_bad.py", [HotPathRule(manifest=CLOCK_BAD_MANIFEST)])
    clocks = ["time.perf_counter()", "perf_counter()", "time.time()", "time.monotonic()"]
    assert len(findings) == len(clocks)
    for finding, clock in zip(findings, clocks):
        assert f"reads the clock ({clock}) — in-band timing" in finding.message


def test_clock_outside_hot_functions_or_injected_is_accepted(run_rules):
    rule = HotPathRule(manifest=CLOCK_GOOD_MANIFEST)
    assert run_rules("hot_clock_good.py", [rule]) == []


def test_module_not_in_manifest_is_skipped(run_rules):
    assert run_rules("hot_bad.py", [HotPathRule(manifest=GOOD_MANIFEST)]) == []


def test_default_manifest_points_at_real_functions():
    # Every default manifest entry must resolve against the live tree —
    # the staleness guard in reverse (see test_gate for the live run).
    from repro.lint import HOT_PATHS

    for suffix, names in HOT_PATHS.items():
        assert suffix.endswith(".py")
        assert names, f"{suffix}: empty manifest entry"
