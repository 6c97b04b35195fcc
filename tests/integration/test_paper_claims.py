"""Integration tests asserting the paper's headline claims hold in shape.

Each test corresponds to a numbered claim from the evaluation (§6); the
benchmark harness regenerates the full tables, while these tests gate the
qualitative results: who wins, by roughly what factor, and where the
crossovers sit.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    HCacheMethod,
    HCacheOnlyMethod,
    KVOffloadMethod,
    NaiveHybridMethod,
    RecomputationMethod,
    default_methods,
)
from repro.core import hcache_timing
from repro.models import model_preset
from repro.simulator import platform_preset
from repro.simulator.costs import theoretical_compute_speedup


MODEL_PLATFORMS = [
    ("llama2-7b", "a100-4ssd"),
    ("llama2-13b", "a100-4ssd"),
    ("opt-30b", "a100x4-4ssd"),
]


class TestAbstractClaims:
    def test_fig1_resource_budget(self):
        """Fig. 1: HCache needs ~1/6 the compute and 1/2 the IO."""
        for name in ("llama2-7b", "llama2-13b", "opt-30b"):
            config = model_preset(name)
            assert theoretical_compute_speedup(config, 2048) >= 6.0
            assert config.kv_bytes_per_token == 2 * config.hidden_bytes_per_token

    @pytest.mark.parametrize("model,platform", MODEL_PLATFORMS)
    def test_fig4_restoration_overhead(self, model, platform):
        """Fig. 4: recompute TTFT 20-26x ideal; KV offload 6.5-13x
        (10K-token L-Eval-style history)."""
        methods = default_methods(model_preset(model), platform_preset(platform))
        ttft = {name: m.ttft(10_000, 100) for name, m in methods.items()}
        assert 15 < ttft["recompute"] / ttft["ideal"] < 45
        assert 5 < ttft["kv-offload"] / ttft["ideal"] < 18


class TestEndToEndSpeedups:
    @pytest.mark.parametrize("model,platform", MODEL_PLATFORMS)
    def test_fig10_ttft_speedups(self, model, platform):
        """Fig. 10: HCache TTFT beats KV offload by 1.62-1.93x and
        recomputation by 2.66-5.73x on long contexts (bands widened to
        accommodate the simulated substrate)."""
        methods = default_methods(model_preset(model), platform_preset(platform))
        ttft = {name: m.ttft(10_000, 100) for name, m in methods.items()}
        assert 1.4 < ttft["kv-offload"] / ttft["hcache"] < 2.3
        assert 2.5 < ttft["recompute"] / ttft["hcache"] < 9.0

    @pytest.mark.parametrize("model,platform", MODEL_PLATFORMS)
    def test_tab3_storage_saving(self, model, platform):
        """Table 3: per-token storage 1.92-2.40x below KV offload."""
        config = model_preset(model)
        hcache = HCacheMethod(config, platform_preset(platform))
        ratio = config.kv_bytes_per_token / hcache.storage_bytes_per_token()
        assert 1.7 <= ratio <= 2.5

    @pytest.mark.parametrize(
        "gpu_platform", ["a100-dram", "4090-dram", "a30-dram", "h800-dram", "l20-dram"]
    )
    def test_fig11_gpu_sweep(self, gpu_platform):
        """Fig. 11a-c: HCache beats KV offload by 1.2-1.9x on every GPU,
        with weaker GPUs at the low end (A30/L20)."""
        config = model_preset("llama2-7b")
        platform = platform_preset(gpu_platform)
        h = HCacheMethod(config, platform).restoration_speed(1024)
        kv = KVOffloadMethod(config, platform).restoration_speed(1024)
        assert 1.15 < h / kv < 2.0

    def test_fig11_weak_gpu_smaller_gain(self):
        """§6.2.1: low compute capability shrinks HCache's lead."""
        config = model_preset("llama2-7b")
        gains = {}
        for name in ("a100-dram", "a30-dram"):
            platform = platform_preset(name)
            h = HCacheMethod(config, platform).restoration_speed(1024)
            kv = KVOffloadMethod(config, platform).restoration_speed(1024)
            gains[name] = h / kv
        assert gains["a30-dram"] < gains["a100-dram"]

    @pytest.mark.parametrize("n_ssds,band", [(1, (2.0, 2.9)), (4, (1.6, 2.1))])
    def test_fig11_ssd_sweep(self, n_ssds, band):
        """Fig. 11d-f: 2.09-2.66x with one SSD per GPU, shrinking toward
        <2x as disks multiply."""
        config = model_preset("llama2-7b")
        platform = platform_preset("default").with_ssds(n_ssds)
        h = HCacheMethod(config, platform).restoration_speed(1024)
        kv = KVOffloadMethod(config, platform).restoration_speed(1024)
        assert band[0] < h / kv < band[1]

    def test_fig11_context_scaling(self):
        """Fig. 11g-i: recompute speed decays with history; HCache and
        KV offload stay roughly flat.

        The paper measured -28% for 7B from 1K to 16K; its own §3.2 cost
        model (which we implement) predicts -13% — the gap is attention's
        memory traffic, which the FLOP model does not charge.  We assert
        the decay direction and the model-implied magnitude.
        """
        config = model_preset("llama2-7b")
        platform = platform_preset("default")
        rec = RecomputationMethod(config, platform)
        h = HCacheMethod(config, platform)
        rec_drop = rec.restoration_speed(16384) / rec.restoration_speed(1024)
        h_drop = h.restoration_speed(16384) / h.restoration_speed(1024)
        assert rec_drop < 0.92
        assert h_drop > 0.85
        assert rec_drop < h_drop


class TestAblations:
    def test_fig12_hcache_beats_naive_hybrid(self):
        """§6.3.1: HCache outperforms the best hidden-state-free hybrid by
        1.28-1.42x (compute-sufficient shown; others in the bench)."""
        config = model_preset("llama2-7b")
        platform = platform_preset("compute-sufficient")
        h = HCacheMethod(config, platform).restoration_speed(1024)
        nh = NaiveHybridMethod(config, platform).restoration_speed(1024)
        assert 1.15 < h / nh < 1.6

    def test_fig12_hcache_o_loses_on_io_sufficient(self):
        """§6.3.1: without the scheduler, HCache-O falls behind KV offload
        when IO is plentiful but compute is not."""
        config = model_preset("llama2-7b")
        platform = platform_preset("io-sufficient")
        ho = HCacheOnlyMethod(config, platform).restoration_speed(1024)
        kv = KVOffloadMethod(config, platform).restoration_speed(1024)
        assert ho < kv

    def test_fig12_scheduler_rescues_hcache(self):
        """§6.3.1: the bubble-free scheduler lifts HCache past KV offload
        on every regime (1.45-2.66x in the paper)."""
        config = model_preset("llama2-7b")
        for regime in ("io-sufficient", "compute-sufficient", "balanced"):
            platform = platform_preset(regime)
            h = HCacheMethod(config, platform).restoration_speed(1024)
            kv = KVOffloadMethod(config, platform).restoration_speed(1024)
            assert h / kv > 1.25, regime

    def test_fig13_layerwise_beats_tokenwise(self, thirteen_b):
        """§6.3.2: token-wise partition is ~12% slower (13B, 1 SSD)."""
        from repro.core import naive_tokenwise_split, tokenwise_timing

        platform = platform_preset("compute-sufficient")
        layer, _ = hcache_timing(thirteen_b, platform, 1024)
        split = naive_tokenwise_split(thirteen_b, platform, 1024)
        token = tokenwise_timing(thirteen_b, platform, split)
        slowdown = token.makespan / layer.makespan
        assert 1.02 < slowdown < 1.5


class TestSchedules:
    def test_tab3_7b_schedule(self, seven_b):
        _, decision = hcache_timing(seven_b, platform_preset("default"), 1024)
        assert decision.scheme.n_hidden >= 30

    def test_tab3_13b_schedule_uses_kv(self, thirteen_b):
        _, decision = hcache_timing(thirteen_b, platform_preset("default"), 1024)
        assert decision.scheme.n_kv >= 1

    def test_tab3_30b_schedule_uses_recompute(self, opt_30b):
        _, decision = hcache_timing(opt_30b, platform_preset("a100x4-4ssd"), 1024)
        assert decision.scheme.n_recompute >= 1
