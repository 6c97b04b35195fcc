"""Tests for GPU-resident KV reuse (§6.4, Fig. 15)."""

from __future__ import annotations

import pytest

from repro.cache.gpu_cache import GPUCacheSimulator
from repro.core.restoration import ttft
from repro.errors import ConfigError
from repro.traces.leval import LEvalGenerator


@pytest.fixture(scope="module")
def contexts():
    return LEvalGenerator(seed=0).sample_context_pool("quality", 40)


@pytest.fixture(scope="module")
def cache_sim(seven_b, default_platform):
    return GPUCacheSimulator(seven_b, default_platform)


class TestReplay:
    def test_uniform_low_hit_ratio(self, cache_sim, contexts):
        """Fig. 15: uniform arrivals give a low (~15%) hit ratio."""
        result = cache_sim.replay(contexts, "hcache", 1500, alpha=None, seed=1)
        assert result.hit_ratio < 0.35

    def test_high_skew_high_hit_ratio(self, cache_sim, contexts):
        """Fig. 15: alpha = 2.0 pushes the hit ratio above ~80%."""
        result = cache_sim.replay(contexts, "hcache", 1500, alpha=2.0, seed=1)
        assert result.hit_ratio > 0.75

    def test_hit_ratio_monotone_in_skew(self, cache_sim, contexts):
        ratios = [
            cache_sim.replay(contexts, "hcache", 1500, alpha, seed=1).hit_ratio
            for alpha in (None, 1.2, 1.6, 2.0)
        ]
        assert all(b >= a - 0.02 for a, b in zip(ratios, ratios[1:]))

    def test_ttft_drops_with_skew(self, cache_sim, contexts):
        """Fig. 15: high skew cuts TTFT several-fold via cache hits."""
        uniform = cache_sim.replay(contexts, "kv-offload", 1500, None, seed=1)
        skewed = cache_sim.replay(contexts, "kv-offload", 1500, 2.0, seed=1)
        assert uniform.mean_ttft / skewed.mean_ttft > 2.0

    def test_hcache_still_wins_at_high_skew(self, cache_sim, contexts):
        """Fig. 15: even at 94% hit ratio HCache stays ahead (1.15x+)."""
        h = cache_sim.replay(contexts, "hcache", 2000, 2.0, seed=2)
        k = cache_sim.replay(contexts, "kv-offload", 2000, 2.0, seed=2)
        r = cache_sim.replay(contexts, "recompute", 2000, 2.0, seed=2)
        assert k.mean_ttft > h.mean_ttft
        assert r.mean_ttft > h.mean_ttft

    def test_same_seed_same_hit_ratio_across_methods(self, cache_sim, contexts):
        """The arrival pattern (and thus hit ratio) is method-independent."""
        a = cache_sim.replay(contexts, "hcache", 500, 1.4, seed=3)
        b = cache_sim.replay(contexts, "kv-offload", 500, 1.4, seed=3)
        assert a.hit_ratio == pytest.approx(b.hit_ratio)

    def test_empty_pool_rejected(self, cache_sim):
        with pytest.raises(ConfigError):
            cache_sim.replay([], "hcache", 10, None)

    def test_hit_costs_the_ideal_ttft(self, seven_b, default_platform):
        """With room for every context, only the first reference misses."""
        pool = LEvalGenerator(seed=0).sample_context_pool("quality", 1)
        ctx = pool[0]
        sim = GPUCacheSimulator(seven_b, default_platform, capacity_tokens=10**6)
        result = sim.replay(pool, "kv-offload", 2, None)
        expected = [
            ttft(name, seven_b, default_platform, ctx.context_tokens, ctx.input_tokens)
            for name in ("kv-offload", "ideal")
        ]
        assert result.mean_ttft == pytest.approx(sum(expected) / 2)
