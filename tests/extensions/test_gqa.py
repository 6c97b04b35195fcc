"""Tests for GQA-aware restoration analysis (§7 extension)."""

from __future__ import annotations

import pytest

from repro.core.gqa import (
    analyze_gqa,
    gqa_crossover_heads,
    hidden_to_kv_ratio,
    with_kv_heads,
)
from repro.errors import ConfigError
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden


class TestVariants:
    def test_mha_ratio_is_half(self, seven_b):
        assert hidden_to_kv_ratio(seven_b) == pytest.approx(0.5)

    def test_crossover_at_half_heads(self, seven_b):
        assert gqa_crossover_heads(seven_b) == 16

    def test_with_kv_heads_renames(self, seven_b):
        variant = with_kv_heads(seven_b, 8)
        assert variant.n_kv_heads == 8
        assert "gqa8" in variant.name

    def test_indivisible_heads_rejected(self, seven_b):
        with pytest.raises(ConfigError):
            with_kv_heads(seven_b, 7)

    def test_gqa_shrinks_kv_bytes(self, seven_b):
        variant = with_kv_heads(seven_b, 8)
        assert variant.kv_bytes_per_token == seven_b.kv_bytes_per_token // 4
        assert variant.hidden_bytes_per_token == seven_b.hidden_bytes_per_token


class TestRegimeChange:
    def test_mha_prefers_hidden(self, seven_b, default_platform):
        analysis = analyze_gqa(seven_b, default_platform, 1024, 32)
        assert analysis.hcache_transmission_wins
        assert analysis.decision.scheme.n_hidden > analysis.decision.scheme.n_kv

    def test_aggressive_gqa_prefers_kv(self, seven_b, default_platform):
        """Below the crossover the search scheduler abandons hidden states
        — the regime the paper's low-rank suggestion targets."""
        analysis = analyze_gqa(seven_b, default_platform, 1024, 4)
        assert not analysis.hcache_transmission_wins
        assert analysis.decision.scheme.n_kv > analysis.decision.scheme.n_hidden

    def test_ratio_monotone_in_kv_heads(self, seven_b, default_platform):
        ratios = [
            analyze_gqa(seven_b, default_platform, 1024, k).hidden_to_kv_ratio
            for k in (32, 16, 8, 4)
        ]
        assert ratios == sorted(ratios)

    def test_makespan_improves_with_gqa(self, seven_b, default_platform):
        """Smaller state means faster restoration, whatever the method."""
        mha = analyze_gqa(seven_b, default_platform, 1024, 32)
        gqa = analyze_gqa(seven_b, default_platform, 1024, 4)
        assert gqa.decision.predicted_makespan < mha.decision.predicted_makespan

    @pytest.mark.parametrize("n_kv_heads", [32, 16, 8, 4])
    def test_decision_is_the_exhaustive_optimum(
        self, seven_b, default_platform, schedule_oracle, n_kv_heads
    ):
        """The closed forms assume the MHA byte ratio; the decision does not."""
        from repro.core.profiler import profile_platform

        variant = with_kv_heads(seven_b, n_kv_heads)
        profile = profile_platform(variant, default_platform, 1024)
        decision = analyze_gqa(seven_b, default_platform, 1024, n_kv_heads).decision
        scheme, timing = schedule_oracle(variant.n_layers, profile)
        assert decision.scheme == scheme
        assert decision.predicted_makespan == timing.makespan


class TestNumericGQA:
    def test_gqa_restoration_still_lossless(self, default_platform):
        """The numeric path handles GQA models end to end."""
        import numpy as np

        from repro.models.config import ModelConfig
        from repro.models.transformer import Transformer

        config = ModelConfig(
            name="tiny-gqa",
            n_layers=3,
            hidden_size=64,
            n_heads=8,
            n_kv_heads=2,
            ffn_hidden_size=128,
            n_ffn_mats=3,
            vocab_size=128,
            max_context=256,
        )
        model = Transformer.from_seed(config, seed=5)
        tokens = np.arange(20) % config.vocab_size
        cache = KVCache(model.config)
        result = model.forward(tokens, cache, capture_hidden=True)
        restored = naive_restore_cache_from_hidden(model, result.hidden_states)
        assert cache.equals(restored)
