import pytest

from servingbench import stats


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 75) == 4.0
    assert stats.percentile(values, 100 * 1 / 5) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, q, ok",
    [
        (40, 75, True),  # exactly ten beyond
        (39, 75, False),
        (100, 90, True),
        (99, 90, False),
        (20, 50, True),
        (19, 50, False),
    ],
)
def test_support_needs_ten_samples_beyond(n, q, ok):
    if ok:
        stats.check_support(n, q)
    else:
        with pytest.raises(stats.UnsupportedPercentile):
            stats.check_support(n, q)


def test_support_is_judged_on_the_pooled_passes():
    passes = [[1.0] * 8] * 5
    stats.pooled_percentile_supported(passes, 75)
    with pytest.raises(stats.UnsupportedPercentile):
        stats.pooled_percentile_supported(passes[:4], 75)


def test_summary_reports_the_median_with_min_and_max():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"value": 2.0, "min": 1.0, "max": 3.0}
    assert stats.summarize([4.0, 1.0, 2.0, 3.0])["value"] == 2.5
    with pytest.raises(ValueError):
        stats.summarize([])


def test_modality_rule_keeps_the_tail_percentile_off_a_mode_boundary():
    unimodal = [1.0] * 100
    assert stats.tail_share(unimodal) == 0.0
    assert stats.modality_ok(0.0, q=90)
    on_boundary = [1.0] * 90 + [5.0] * 10
    assert stats.tail_share(on_boundary) == pytest.approx(0.10)
    assert not stats.modality_ok(stats.tail_share(on_boundary), q=90)
    # a p90 needs "below 5 % or above 15 %", a p75 "below 20 % or above 30 %"
    assert stats.modality_ok(0.04, q=90) and stats.modality_ok(0.16, q=90)
    assert not stats.modality_ok(0.06, q=90) and not stats.modality_ok(0.14, q=90)
    assert not stats.modality_ok(0.21, q=75) and not stats.modality_ok(0.29, q=75)
    assert stats.modality_ok(0.19, q=75) and stats.modality_ok(0.31, q=75)


def test_spreads():
    values = [9.0, 10.0, 10.0, 11.0]
    assert stats.relative_spread(values) == pytest.approx(0.2)
    assert stats.iqr_spread([10.0] * 10) == 0.0
    assert stats.iqr_spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)
