"""Tests for restoration timing (layer-wise and token-wise)."""

from __future__ import annotations

import pytest

from repro.core.partition import PartitionScheme, TokenPartition
from repro.core.restoration import naive_tokenwise_split, scheme_timing, tokenwise_timing
from repro.core.scheduler import hcache_timing
from repro.errors import ConfigError
from repro.simulator.hardware import platform_preset


class TestSchemeTiming:
    def test_makespan_positive(self, seven_b, default_platform):
        timing = scheme_timing(
            seven_b, default_platform, 1024, PartitionScheme.pure_hcache(32)
        )
        assert timing.makespan > 0
        assert timing.n_tokens == 1024

    def test_restoration_speed_definition(self, seven_b, default_platform):
        timing = scheme_timing(
            seven_b, default_platform, 2048, PartitionScheme.pure_hcache(32)
        )
        assert timing.restoration_speed == pytest.approx(2048 / timing.makespan)

    def test_makespan_at_least_stream_busy(self, seven_b, default_platform):
        timing = scheme_timing(
            seven_b, default_platform, 1024, PartitionScheme.with_kv_suffix(32, 4)
        )
        assert timing.makespan >= timing.io_busy - 1e-12
        assert timing.makespan >= timing.compute_busy - 1e-12

    def test_wrong_layer_count_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            scheme_timing(seven_b, default_platform, 64, PartitionScheme.pure_hcache(5))


class TestHCacheTiming:
    def test_scheduled_beats_hcache_only_on_skewed_platform(self, seven_b):
        """§6.3.1: the bubble-free scheduler improves HCache-O by
        1.35-1.64x on skewed hardware."""
        platform = platform_preset("compute-sufficient")
        scheduled, _ = hcache_timing(seven_b, platform, 1024)
        only = scheme_timing(seven_b, platform, 1024, PartitionScheme.pure_hcache(32))
        ratio = only.makespan / scheduled.makespan
        assert 1.2 < ratio < 2.0

    def test_balanced_platform_no_gain(self, seven_b, default_platform):
        """On balanced hardware HCache-O is already near bubble-free."""
        scheduled, _ = hcache_timing(seven_b, default_platform, 1024)
        only = scheme_timing(
            seven_b, default_platform, 1024, PartitionScheme.pure_hcache(32)
        )
        assert only.makespan / scheduled.makespan < 1.15

    def test_decision_scheme_consistency(self, thirteen_b, default_platform):
        timing, decision = hcache_timing(thirteen_b, default_platform, 1024)
        again = scheme_timing(thirteen_b, default_platform, 1024, decision.scheme)
        assert timing.makespan == pytest.approx(again.makespan)


class TestTokenwise:
    def test_layerwise_beats_tokenwise(self, thirteen_b):
        """Fig. 13a: token-wise partition is ~12% slower; layer-wise wins."""
        platform = platform_preset("compute-sufficient")
        layer_timing, _ = hcache_timing(thirteen_b, platform, 1024)
        split = naive_tokenwise_split(thirteen_b, platform, 1024)
        token_timing = tokenwise_timing(thirteen_b, platform, split)
        assert layer_timing.makespan < token_timing.makespan

    def test_round_up_improves_tokenwise(self, thirteen_b):
        """Fig. 13a: the round-up variant beats the naive token-wise one
        (a more performant cuBLAS kernel), but still loses to layer-wise."""
        from repro.core.partition import TokenPartition
        from repro.simulator.gemm import round_up_tokens

        platform = platform_preset("compute-sufficient")
        split = naive_tokenwise_split(thirteen_b, platform, 1024)
        naive = tokenwise_timing(thirteen_b, platform, split)
        aligned = max(0, min(round_up_tokens(split.n_hidden_tokens) - 128, 1024))
        rounded = tokenwise_timing(
            thirteen_b,
            platform,
            TokenPartition(aligned, 1024 - aligned),
            round_up=True,
        )
        layer, _ = hcache_timing(thirteen_b, platform, 1024)
        assert rounded.makespan <= naive.makespan * 1.001
        assert layer.makespan < rounded.makespan

    def test_naive_split_is_irregular(self, thirteen_b):
        """The smooth-cost balance lands off the tile grid (paper: 794)."""
        platform = platform_preset("compute-sufficient")
        split = naive_tokenwise_split(thirteen_b, platform, 1024)
        assert 0 < split.n_hidden_tokens < 1024
        assert split.n_hidden_tokens % 128 != 0

    def test_empty_partition_rejected(self, thirteen_b, default_platform):
        with pytest.raises(ConfigError):
            tokenwise_timing(thirteen_b, default_platform, TokenPartition(0, 0))

    def test_all_hidden_tokenwise(self, thirteen_b, default_platform):
        timing = tokenwise_timing(
            thirteen_b, default_platform, TokenPartition(1024, 0)
        )
        assert timing.makespan > 0

    def test_zero_tokens_rejected_in_search(self, thirteen_b, default_platform):
        with pytest.raises(ConfigError):
            naive_tokenwise_split(thirteen_b, default_platform, 0)


class TestScaling:
    def test_restoration_speed_stable_across_length(self, seven_b, default_platform):
        """§6.2.3: HCache scales linearly — speed roughly constant."""
        speeds = [
            hcache_timing(seven_b, default_platform, n)[0].restoration_speed
            for n in (1024, 4096, 16384)
        ]
        assert max(speeds) / min(speeds) < 1.4
