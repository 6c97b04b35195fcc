"""Tests for the saving strategies (§4.2.2, Fig. 14)."""

from __future__ import annotations

import pytest

from repro.core import saving
from repro.core.saving import SAVING_STRATEGIES, decode_tbt_with_saving
from repro.errors import ConfigError
from repro.simulator.hardware import HOST_DRAM, PM9A3, SSDSpec, platform_preset


class TestTwoStage:
    def test_no_stall_at_decode_rates(self, seven_b, default_platform):
        """§6.3.3: cudaMemcpy snapshots never stall decoding."""
        for batch in (1, 8, 16, 32):
            impact = decode_tbt_with_saving(seven_b, default_platform, batch, 512, "two-stage")
            assert impact.stall == 0.0

    def test_tbt_matches_ideal(self, seven_b, default_platform):
        two_stage = decode_tbt_with_saving(seven_b, default_platform, 16, 512, "two-stage")
        ideal = decode_tbt_with_saving(seven_b, default_platform, 16, 512, "ideal")
        assert two_stage.tbt == ideal.tbt

    # Stall of 7B at batch 8 (512-token histories) on the default platform
    # with the staging buffer shrunk below one layer's 64 KiB snapshot: the
    # values the snapshot-then-flush daemon model gave before it was folded
    # into one function.  Each layer's snapshot overflows by
    # ``65 536 - staging`` bytes and waits for that much to flush at
    # 16 GB/s; the backlog drains fully within every layer.
    @pytest.mark.parametrize(
        "staging_bytes, stall",
        [
            (1, 0.00013107),
            (4096, 0.00012288000000000004),
            (32768, 6.553599999999999e-05),
            (65535, 1.9999999999999997e-09),
        ],
    )
    def test_staging_overflow_stalls(
        self, seven_b, default_platform, monkeypatch, staging_bytes, stall
    ):
        monkeypatch.setattr(saving, "STAGING_BYTES", staging_bytes)
        impact = decode_tbt_with_saving(seven_b, default_platform, 8, 512, "two-stage")
        assert impact.stall == stall

    def test_snapshot_that_fits_never_stalls(self, seven_b, default_platform, monkeypatch):
        """A buffer of exactly one snapshot suffices: the backlog drains
        within the layer, so the next snapshot finds it empty."""
        snapshot = 8 * seven_b.hidden_bytes_per_token_layer
        monkeypatch.setattr(saving, "STAGING_BYTES", snapshot)
        impact = decode_tbt_with_saving(seven_b, default_platform, 8, 512, "two-stage")
        assert impact.stall == 0.0

    def test_undrained_backlog_stalls_every_layer(self, seven_b, default_platform, monkeypatch):
        """When the flush cannot keep up, every layer after the first waits
        for the whole snapshot it adds beyond the buffer."""
        slow = default_platform.with_ssds(1, SSDSpec("slow", 1e9, 1e3))
        snapshot = 8 * seven_b.hidden_bytes_per_token_layer
        monkeypatch.setattr(saving, "STAGING_BYTES", snapshot)
        impact = decode_tbt_with_saving(seven_b, slow, 8, 512, "two-stage")
        layer_time = impact.base_tbt / seven_b.n_layers
        bw = slow.storage_write_bandwidth
        assert bw == 1e3
        expected = (seven_b.n_layers - 1) * (snapshot - layer_time * bw) / bw
        assert impact.stall == pytest.approx(expected, rel=1e-9)
        assert impact.stall == 2031.606018202547  # the daemon model's value


class TestDirectIO:
    def test_small_batch_no_stall(self, seven_b, default_platform):
        """Fig. 14: DirectIO matches ideal while IO fits in a layer's
        decode time."""
        impact = decode_tbt_with_saving(seven_b, default_platform, 2, 512, "direct-io")
        assert impact.overhead_fraction < 0.05

    def test_large_batch_stalls(self, seven_b, default_platform):
        """Fig. 14a: 7B TBT inflates noticeably by batch size 16."""
        impact = decode_tbt_with_saving(seven_b, default_platform, 16, 512, "direct-io")
        assert impact.overhead_fraction > 0.15

    def test_overhead_grows_with_batch(self, seven_b, default_platform):
        overheads = [
            decode_tbt_with_saving(
                seven_b, default_platform, b, 512, "direct-io"
            ).overhead_fraction
            for b in (2, 8, 16, 24)
        ]
        assert overheads == sorted(overheads)

    def test_13b_less_affected_than_7b(self, seven_b, thirteen_b, default_platform):
        """Fig. 14b: slower layers absorb more of the write latency."""
        f7 = decode_tbt_with_saving(seven_b, default_platform, 16, 512, "direct-io")
        f13 = decode_tbt_with_saving(thirteen_b, default_platform, 16, 512, "direct-io")
        assert f13.overhead_fraction < f7.overhead_fraction

    def test_two_stage_beats_directio_at_scale(self, seven_b, default_platform):
        two = decode_tbt_with_saving(seven_b, default_platform, 24, 512, "two-stage")
        direct = decode_tbt_with_saving(seven_b, default_platform, 24, 512, "direct-io")
        assert direct.tbt > two.tbt

    def test_dram_platform_prices_small_writes_like_a_pm9a3(self, seven_b):
        """Host DRAM keeps the SSD small-write figures, so its writes cost
        what a PM9A3's do."""
        platform = platform_preset("a100-dram")
        assert platform.storage == (HOST_DRAM,)
        impact = decode_tbt_with_saving(seven_b, platform, 16, 512, "direct-io")
        layer_time = impact.base_tbt / seven_b.n_layers
        write_time = 16 * PM9A3.small_write_time(seven_b.hidden_bytes_per_token_layer)
        assert impact.stall == pytest.approx(seven_b.n_layers * (write_time - layer_time))


class TestValidation:
    @pytest.mark.parametrize("strategy", SAVING_STRATEGIES)
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_empty_or_negative_batch_rejected(
        self, seven_b, default_platform, strategy, batch_size
    ):
        with pytest.raises(ConfigError):
            decode_tbt_with_saving(seven_b, default_platform, batch_size, 512, strategy)

    @pytest.mark.parametrize("strategy", SAVING_STRATEGIES)
    def test_negative_history_rejected(self, seven_b, default_platform, strategy):
        with pytest.raises(ConfigError):
            decode_tbt_with_saving(seven_b, default_platform, 8, -4000, strategy)

    def test_unknown_strategy_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError, match="unknown saving strategy"):
            decode_tbt_with_saving(seven_b, default_platform, 8, 512, "write-back")

    def test_ideal_never_stalls(self, seven_b, default_platform):
        impact = decode_tbt_with_saving(seven_b, default_platform, 32, 512, "ideal")
        assert impact.stall == 0.0
        assert impact.tbt == impact.base_tbt

    def test_impact_fields_consistent(self, seven_b, default_platform):
        impact = decode_tbt_with_saving(seven_b, default_platform, 8, 512, "direct-io")
        assert impact.tbt == pytest.approx(impact.base_tbt + impact.stall)
