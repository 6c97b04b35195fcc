"""Tests for the restoration methods (HCache vs baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    HCacheMethod,
    HCacheOnlyMethod,
    IdealMethod,
    KVOffloadMethod,
    NaiveHybridMethod,
    RecomputationMethod,
    default_methods,
)
from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.errors import ConfigError
from repro.simulator.hardware import platform_preset


class TestRecomputation:
    def test_pure_compute(self, seven_b, default_platform):
        timing = RecomputationMethod(seven_b, default_platform).restoration_timing(1024)
        assert timing.io_busy == 0.0
        assert timing.compute_busy == timing.makespan

    def test_zero_storage(self, seven_b, default_platform):
        assert RecomputationMethod(seven_b, default_platform).storage_bytes_per_token() == 0

    def test_quadratic_scaling(self, seven_b, default_platform):
        method = RecomputationMethod(seven_b, default_platform)
        assert method.restoration_speed(16384) < method.restoration_speed(1024)

    def test_ttft_folds_history(self, seven_b, default_platform):
        """One prefill over history+new beats restore-then-prefill."""
        method = RecomputationMethod(seven_b, default_platform)
        folded = method.ttft(1000, 100)
        separate = (
            default_platform.request_overhead
            + method.restoration_timing(1000).makespan
            + method.restoration_timing(100).makespan
        )
        assert folded < separate


class TestKVOffload:
    def test_pure_io(self, seven_b, default_platform):
        timing = KVOffloadMethod(seven_b, default_platform).restoration_timing(1024)
        assert timing.compute_busy == 0.0
        assert timing.io_busy == timing.makespan

    def test_storage_is_full_kv(self, seven_b, default_platform):
        method = KVOffloadMethod(seven_b, default_platform)
        assert method.storage_bytes_per_token() == seven_b.kv_bytes_per_token

    def test_linear_scaling(self, seven_b, default_platform):
        """Fig. 11g-i: KV offload speed is flat in history length."""
        method = KVOffloadMethod(seven_b, default_platform)
        s1 = method.restoration_speed(1024)
        s2 = method.restoration_speed(16384)
        assert s2 == pytest.approx(s1, rel=0.1)

    def test_numeric_roundtrip(self, tiny_model, tiny_config, storage_manager):
        """The numeric KV-offload path is the engine's all-KV scheme."""
        tokens = np.arange(12) % tiny_config.vocab_size
        result, cache = tiny_model.prefill(tokens, capture_hidden=True)
        engine = HCacheEngine(
            tiny_model, storage_manager,
            scheme=PartitionScheme.pure_kv(tiny_config.n_layers),
        )
        engine.register_context("ctx")
        engine.save_states("ctx", result.hidden_states, tokens, kv_cache=cache)
        engine.seal("ctx")
        assert cache.equals(engine.restore("ctx"), atol=0.0)


class TestHCacheMethod:
    def test_fastest_on_default_testbed(self, seven_b, default_platform):
        methods = default_methods(seven_b, default_platform)
        speeds = {
            name: m.restoration_speed(1024)
            for name, m in methods.items()
            if name != "ideal"
        }
        assert speeds["hcache"] == max(speeds.values())

    def test_vs_offload_band(self, seven_b, default_platform):
        """§6: HCache beats KV offload by 1.3-2.7x across the paper."""
        methods = default_methods(seven_b, default_platform)
        ratio = (
            methods["hcache"].restoration_speed(1024)
            / methods["kv-offload"].restoration_speed(1024)
        )
        assert 1.3 < ratio < 2.8

    def test_vs_recompute_band(self, seven_b, default_platform):
        methods = default_methods(seven_b, default_platform)
        ratio = (
            methods["hcache"].restoration_speed(1024)
            / methods["recompute"].restoration_speed(1024)
        )
        assert ratio > 2.0

    def test_decision_cached(self, seven_b, default_platform):
        method = HCacheMethod(seven_b, default_platform)
        a = method.decision_for(1024)
        b = method.decision_for(1024)
        assert a is b

    def test_hcache_only_is_pure_hidden(self, seven_b, default_platform):
        method = HCacheOnlyMethod(seven_b, default_platform)
        scheme = method.scheme_for(1024)
        assert scheme.n_hidden == seven_b.n_layers

    def test_storage_cost_below_offload(self, seven_b, default_platform):
        h = HCacheMethod(seven_b, default_platform)
        kv = KVOffloadMethod(seven_b, default_platform)
        assert h.storage_bytes_per_token() < kv.storage_bytes_per_token()


class TestNaiveHybrid:
    def test_beats_both_parents_on_compute_sufficient(self, seven_b):
        """§6.3.1: the balanced hybrid is the best no-hidden-state method."""
        platform = platform_preset("compute-sufficient")
        hybrid = NaiveHybridMethod(seven_b, platform)
        rec = RecomputationMethod(seven_b, platform)
        kv = KVOffloadMethod(seven_b, platform)
        s = hybrid.restoration_speed(1024)
        assert s >= rec.restoration_speed(1024)
        assert s >= kv.restoration_speed(1024)

    def test_hcache_beats_hybrid(self, seven_b):
        """§6.3.1: HCache outperforms the naive hybrid by 1.28-1.42x."""
        platform = platform_preset("compute-sufficient")
        hybrid = NaiveHybridMethod(seven_b, platform)
        hcache = HCacheMethod(seven_b, platform)
        ratio = hcache.restoration_speed(1024) / hybrid.restoration_speed(1024)
        assert 1.15 < ratio < 1.6

    def test_split_sums_to_total(self, seven_b, default_platform):
        split = NaiveHybridMethod(seven_b, default_platform).best_split(1024)
        assert split.recompute_tokens + split.offload_tokens == 1024

    def test_bubbles_reported(self, seven_b, default_platform):
        timing = NaiveHybridMethod(seven_b, default_platform).restoration_timing(1024)
        assert timing.makespan == pytest.approx(
            max(timing.io_busy, timing.compute_busy)
        )

    def test_zero_tokens_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            NaiveHybridMethod(seven_b, default_platform).best_split(0)


class TestIdeal:
    def test_zero_restoration(self, seven_b, default_platform):
        timing = IdealMethod(seven_b, default_platform).restoration_timing(10_000)
        assert timing.makespan == 0.0

    def test_ttft_is_overhead_plus_prefill(self, seven_b, default_platform):
        method = IdealMethod(seven_b, default_platform)
        assert method.ttft(10_000, 100) < 0.1

    def test_lower_bounds_everyone(self, seven_b, default_platform):
        methods = default_methods(seven_b, default_platform)
        ideal = methods["ideal"].ttft(8192, 128)
        for name, m in methods.items():
            assert m.ttft(8192, 128) >= ideal - 1e-12, name


class TestCommonInterface:
    def test_negative_tokens_rejected(self, seven_b, default_platform):
        with pytest.raises(ConfigError):
            IdealMethod(seven_b, default_platform).ttft(-1, 10)

    def test_describe(self, seven_b, default_platform):
        text = HCacheMethod(seven_b, default_platform).describe()
        assert "hcache" in text and "A100" in text
