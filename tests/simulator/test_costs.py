"""Tests for the §3.2 analytic cost model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simulator.costs import (
    attention_flops,
    decode_iteration_time,
    estimate_restoration,
    ffn_flops,
    full_layer_flops,
    hidden_bytes,
    kv_bytes,
    kv_projection_flops,
    prefill_time,
    theoretical_compute_speedup,
)


class TestByteCounts:
    def test_hidden_is_half_of_kv(self, seven_b):
        """§3.2: hidden states are exactly half the KV cache size (MHA)."""
        assert 2 * hidden_bytes(seven_b, 100) == kv_bytes(seven_b, 100)

    def test_hidden_bytes_7b_per_token_layer(self, seven_b):
        # 4096 fp16 elements = 8 KiB per token per layer.
        assert hidden_bytes(seven_b, 1, 1) == 8192

    def test_layer_subset(self, seven_b):
        assert hidden_bytes(seven_b, 10, 4) == 4 * hidden_bytes(seven_b, 10, 1)

    def test_full_model_default(self, seven_b):
        assert hidden_bytes(seven_b, 1) == seven_b.n_layers * 8192


class TestFlopCounts:
    def test_projection_flops_formula(self, seven_b):
        """C_hidden = 4 * N * D^2 for MHA."""
        n, d = 64, seven_b.hidden_size
        assert kv_projection_flops(seven_b, n) == pytest.approx(4 * n * d * d)

    def test_attention_flops_has_quadratic_term(self, seven_b):
        base = attention_flops(seven_b, 1000)
        double = attention_flops(seven_b, 2000)
        # Superlinear growth: more than 2x when N doubles.
        assert double > 2 * base

    def test_ffn_flops_opt_matches_16nd2(self, opt_30b):
        """OPT has D_ffn = 4D and 2 matrices: FFN = 16 N D^2 exactly."""
        n, d = 32, opt_30b.hidden_size
        assert ffn_flops(opt_30b, n) == pytest.approx(16 * n * d * d)

    def test_full_layer_is_attention_plus_ffn(self, seven_b):
        n = 128
        assert full_layer_flops(seven_b, n) == pytest.approx(
            attention_flops(seven_b, n) + ffn_flops(seven_b, n)
        )

    def test_compute_speedup_at_least_6x(self, seven_b, thirteen_b, opt_30b):
        """§3.2: the lower bound of the compute saving is 6x."""
        for config in (seven_b, thirteen_b, opt_30b):
            for n in (64, 1024, 16384):
                assert theoretical_compute_speedup(config, n) >= 6.0

    def test_compute_speedup_grows_with_length(self, opt_30b):
        """HCache's saving grows with context (quadratic term vanishes)."""
        short = theoretical_compute_speedup(opt_30b, 256)
        long = theoretical_compute_speedup(opt_30b, 16384)
        assert long > short

    def test_opt_speedup_matches_paper_formula(self, opt_30b):
        """For D_ffn = 4D the ratio is exactly 6 + N / (4 D)."""
        n, d = 4096, opt_30b.hidden_size
        assert theoretical_compute_speedup(opt_30b, n) == pytest.approx(6 + n / (4 * d))


class TestRestorationEstimate:
    def test_rejects_zero_tokens(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            estimate_restoration(seven_b, default_platform, 0)

    def test_closed_forms_of_section_3_2(self, seven_b, default_platform):
        """HCache is the per-layer max of hidden IO and the un-tiled
        projection; KV offload moves twice the hidden bytes."""
        n, bw = 1024, default_platform.storage_read_bandwidth
        est = estimate_restoration(seven_b, default_platform, n)
        io_hidden = hidden_bytes(seven_b, n, 1) / bw
        compute_hidden = kv_projection_flops(seven_b, n) / (
            default_platform.total_flops * default_platform.gemm_eff
        )
        layers = seven_b.n_layers
        assert est.hcache == pytest.approx(layers * max(io_hidden, compute_hidden))
        assert est.kv_offload == pytest.approx(2 * layers * io_hidden)
        assert est.recompute == pytest.approx(
            layers
            * full_layer_flops(seven_b, n)
            / (default_platform.total_flops * default_platform.prefill_efficiency)
        )

    def test_hcache_fastest(self, seven_b, default_platform):
        est = estimate_restoration(seven_b, default_platform, 2048)
        assert est.hcache < est.kv_offload < est.recompute

    def test_speedup_vs_offload_at_most_2x_when_io_bound(self, seven_b, dram_platform):
        """With IO as the bottleneck the gain is bounded by the 2x size cut."""
        est = estimate_restoration(seven_b, dram_platform, 4096)
        assert est.speedup_vs_offload <= 2.0 + 1e-9

    def test_speedup_vs_recompute_exceeds_theory_floor(self, seven_b, default_platform):
        est = estimate_restoration(seven_b, default_platform, 4096)
        assert est.speedup_vs_recompute > 2.0

    def test_scales_linearly_in_tokens(self, seven_b, default_platform):
        short = estimate_restoration(seven_b, default_platform, 1024)
        long = estimate_restoration(seven_b, default_platform, 2048)
        assert long.hcache == pytest.approx(2 * short.hcache, rel=0.01)
        assert long.kv_offload == pytest.approx(2 * short.kv_offload, rel=0.01)
        # Recompute grows superlinearly.
        assert long.recompute > 2 * short.recompute


class TestPrefillAndDecode:
    def test_prefill_zero_tokens_free(self, seven_b, default_platform):
        assert prefill_time(seven_b, default_platform, 0) == 0.0

    def test_prefill_superlinear(self, seven_b, default_platform):
        t1 = prefill_time(seven_b, default_platform, 4096)
        t2 = prefill_time(seven_b, default_platform, 8192)
        assert t2 > 2 * t1 * 0.99

    def test_prefill_magnitude_7b(self, seven_b, default_platform):
        """A 2.5K-token 7B prefill on one A100 lands in the 100-400 ms
        window implied by Fig. 9a's recompute TTFT."""
        t = prefill_time(seven_b, default_platform, 2500)
        assert 0.1 < t < 0.4

    def test_decode_iteration_in_tbt_band(self, seven_b, default_platform):
        """Fig. 9d: 7B TBT sits in the 10-30 ms band."""
        t = decode_iteration_time(seven_b, default_platform, 8, 8 * 1000)
        assert 0.008 < t < 0.03

    def test_decode_time_grows_with_context(self, seven_b, default_platform):
        small = decode_iteration_time(seven_b, default_platform, 4, 4 * 512)
        large = decode_iteration_time(seven_b, default_platform, 4, 4 * 8192)
        assert large > small

    def test_decode_empty_batch_free(self, seven_b, default_platform):
        assert decode_iteration_time(seven_b, default_platform, 0, 0) == 0.0

    @pytest.mark.parametrize("batch_size, context_tokens", [(8, -4000), (-1, 0), (-8, 4096)])
    def test_decode_negative_counts_rejected(
        self, seven_b, default_platform, batch_size, context_tokens
    ):
        """A negative context used to shrink the KV read below zero and
        price the iteration far under an empty history's."""
        with pytest.raises(ConfigError):
            decode_iteration_time(seven_b, default_platform, batch_size, context_tokens)

    def test_bigger_model_decodes_slower(self, seven_b, thirteen_b, default_platform):
        t7 = decode_iteration_time(seven_b, default_platform, 1, 512)
        t13 = decode_iteration_time(thirteen_b, default_platform, 1, 512)
        assert t13 > t7
