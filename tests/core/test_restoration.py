"""Tests for restoration timing: layer-wise, token-wise, and the timing
table of every method the paper compares (§6)."""

from __future__ import annotations

import math

import pytest

from repro.core.partition import PartitionScheme, TokenPartition
from repro.core.profiler import build_storage_array
from repro.core.restoration import (
    DEFAULT_METHODS,
    HYBRID_SEARCH_STEP,
    METHODS,
    method_timing,
    naive_tokenwise_split,
    scheme_timing,
    tokenwise_timing,
    ttft,
)
from repro.core.scheduler import hcache_timing
from repro.errors import ConfigError
from repro.simulator.costs import prefill_time
from repro.simulator.hardware import platform_preset
from repro.storage.chunk import CHUNK_TOKENS


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

    @pytest.mark.parametrize("n_hidden", [1, 63, 64, 65, 643])
    def test_hidden_shard_reads_whole_chunks(self, thirteen_b, default_platform, n_hidden):
        """Each layer reads the hidden shard as whole 64-token chunks."""
        timing = tokenwise_timing(thirteen_b, default_platform, TokenPartition(n_hidden, 0))
        chunk_bytes = CHUNK_TOKENS * thirteen_b.hidden_bytes_per_token_layer
        read = build_storage_array(default_platform).layer_read_timing(
            math.ceil(n_hidden / CHUNK_TOKENS), chunk_bytes
        )
        assert timing.io_busy == pytest.approx(thirteen_b.n_layers * read.seconds, rel=1e-12)

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


def speed(name, config, platform, n_tokens=1024):
    return method_timing(name, config, platform, n_tokens).restoration_speed


class TestMethodTable:
    @pytest.mark.parametrize(
        "name, scheme",
        [
            ("kv-offload", PartitionScheme.pure_kv),
            ("hcache-o", PartitionScheme.pure_hcache),
        ],
    )
    def test_fixed_schemes(self, seven_b, default_platform, name, scheme):
        """KV offload and HCache-O are partition schemes on the two streams."""
        expected = scheme_timing(seven_b, default_platform, 1024, scheme(seven_b.n_layers))
        assert method_timing(name, seven_b, default_platform, 1024) == expected

    def test_hcache_is_the_scheduled_scheme(self, thirteen_b, default_platform):
        timing, _ = hcache_timing(thirteen_b, default_platform, 1024)
        assert method_timing("hcache", thirteen_b, default_platform, 1024) == timing

    def test_schedule_memoized_per_length(self, seven_b, default_platform):
        assert hcache_timing(seven_b, default_platform, 1024) is hcache_timing(
            seven_b, default_platform, 1024
        )

    def test_recompute_is_pure_compute(self, seven_b, default_platform):
        timing = method_timing("recompute", seven_b, default_platform, 1024)
        assert timing.io_busy == 0.0
        assert timing.compute_busy == timing.makespan

    def test_kv_offload_is_pure_io(self, seven_b, default_platform):
        timing = method_timing("kv-offload", seven_b, default_platform, 1024)
        assert timing.compute_busy == 0.0
        assert timing.io_busy == timing.makespan

    def test_ideal_restores_for_free(self, seven_b, default_platform):
        assert method_timing("ideal", seven_b, default_platform, 10_000).makespan == 0.0

    def test_recompute_speed_falls_with_length(self, seven_b, default_platform):
        """Fig. 11g-i: quadratic attention makes long histories slow."""
        assert speed("recompute", seven_b, default_platform, 16384) < speed(
            "recompute", seven_b, default_platform, 1024
        )

    def test_kv_offload_speed_flat_in_length(self, seven_b, default_platform):
        """Fig. 11g-i: KV offload speed is flat in history length."""
        assert speed("kv-offload", seven_b, default_platform, 16384) == pytest.approx(
            speed("kv-offload", seven_b, default_platform, 1024), rel=0.1
        )

    def test_unknown_method_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            method_timing("dram-cache", seven_b, default_platform, 1024)
        with pytest.raises(ConfigError):
            ttft("dram-cache", seven_b, default_platform, 0, 10)


class TestMethodOrdering:
    def test_hcache_fastest_on_default_testbed(self, seven_b, default_platform):
        speeds = {
            name: speed(name, seven_b, default_platform)
            for name in DEFAULT_METHODS
            if name != "ideal"
        }
        assert speeds["hcache"] == max(speeds.values())

    @pytest.mark.parametrize(
        "baseline, low, high",
        [("kv-offload", 1.3, 2.8), ("recompute", 2.0, float("inf"))],
    )
    def test_hcache_speedup_band(self, seven_b, default_platform, baseline, low, high):
        """§6: HCache beats KV offload by 1.3-2.7x, recompute by over 2x."""
        ratio = speed("hcache", seven_b, default_platform) / speed(
            baseline, seven_b, default_platform
        )
        assert low < ratio < high


class TestStorage:
    def test_kv_offload_stores_full_kv(self, seven_b):
        scheme = PartitionScheme.pure_kv(seven_b.n_layers)
        assert scheme.storage_bytes_per_token(seven_b) == seven_b.kv_bytes_per_token

    def test_recompute_stores_nothing(self, seven_b):
        scheme = PartitionScheme.pure_recompute(seven_b.n_layers)
        assert scheme.storage_bytes_per_token(seven_b) == 0

    def test_hcache_stores_less_than_kv_offload(self, seven_b, default_platform):
        _, decision = hcache_timing(seven_b, default_platform, 1024)
        assert (
            decision.scheme.storage_bytes_per_token(seven_b)
            < PartitionScheme.pure_kv(seven_b.n_layers).storage_bytes_per_token(seven_b)
        )


class TestNaiveHybrid:
    def test_beats_both_parents_on_compute_sufficient(self, seven_b):
        """§6.3.1: the balanced hybrid is the best no-hidden-state method."""
        platform = platform_preset("compute-sufficient")
        hybrid = speed("naive-hybrid", seven_b, platform)
        assert hybrid >= speed("recompute", seven_b, platform)
        assert hybrid >= speed("kv-offload", seven_b, platform)

    def test_hcache_beats_hybrid(self, seven_b):
        """§6.3.1: HCache outperforms the naive hybrid by 1.28-1.42x."""
        platform = platform_preset("compute-sufficient")
        ratio = speed("hcache", seven_b, platform) / speed("naive-hybrid", seven_b, platform)
        assert 1.15 < ratio < 1.6

    def test_shards_cover_the_history(self, seven_b, default_platform):
        """The compute shard is a prefill of n_rec tokens on the search
        grid and the IO shard reads the other n - n_rec as KV."""
        n = 1024
        timing = method_timing("naive-hybrid", seven_b, default_platform, n)
        n_rec = next(
            k
            for k in range(0, n + 1, HYBRID_SEARCH_STEP)
            if prefill_time(seven_b, default_platform, k) == timing.compute_busy
        )
        offload = method_timing("kv-offload", seven_b, default_platform, n - n_rec)
        assert timing.io_busy == offload.makespan

    def test_streams_run_side_by_side(self, seven_b, default_platform):
        timing = method_timing("naive-hybrid", seven_b, default_platform, 1024)
        assert timing.makespan == pytest.approx(max(timing.io_busy, timing.compute_busy))

    def test_zero_tokens_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            method_timing("naive-hybrid", seven_b, default_platform, 0)


class TestTTFT:
    @pytest.mark.parametrize("name", METHODS)
    def test_no_history_costs_what_ideal_costs(self, seven_b, default_platform, name):
        """With nothing to restore every method pays the request overhead
        and the prompt's prefill, recompute included."""
        assert ttft(name, seven_b, default_platform, 0, 100) == ttft(
            "ideal", seven_b, default_platform, 0, 100
        )

    @pytest.mark.parametrize("name", METHODS)
    @pytest.mark.parametrize("n_history, n_new", [(-1, 10), (10, -1)])
    def test_negative_counts_rejected(self, seven_b, default_platform, name, n_history, n_new):
        with pytest.raises(ConfigError):
            ttft(name, seven_b, default_platform, n_history, n_new)

    @pytest.mark.parametrize("name", METHODS)
    def test_ideal_lower_bounds_everyone(self, seven_b, default_platform, name):
        ideal = ttft("ideal", seven_b, default_platform, 8192, 128)
        assert ttft(name, seven_b, default_platform, 8192, 128) >= ideal

    def test_ideal_is_overhead_plus_prefill(self, seven_b, default_platform):
        expected = default_platform.request_overhead + prefill_time(
            seven_b, default_platform, 100
        )
        assert ttft("ideal", seven_b, default_platform, 10_000, 100) == expected
        assert expected < 0.1

    def test_recompute_folds_history(self, seven_b, default_platform):
        """One prefill over history+new beats restore-then-prefill."""
        folded = ttft("recompute", seven_b, default_platform, 1000, 100)
        separate = (
            default_platform.request_overhead
            + method_timing("recompute", seven_b, default_platform, 1000).makespan
            + method_timing("recompute", seven_b, default_platform, 100).makespan
        )
        assert folded < separate
