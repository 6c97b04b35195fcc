"""Full-stack integration tests crossing every package boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DEFAULT_METHODS, HCacheEngine, PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine import NumericServingEngine, simulate_methods
from repro.models import KVCache
from repro.storage import StorageManager
from repro.traces import ShareGPTGenerator, build_workload


class TestAllRestorationPathsAgree:
    """HCache, KV offload, and recomputation must all restore the same
    numeric state — they differ only in cost."""

    def test_three_way_equivalence(self, tiny_model, tiny_config, default_platform):
        tokens = np.random.default_rng(1).integers(0, tiny_config.vocab_size, size=25)
        reference = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, reference, capture_hidden=True)

        # HCache path.
        storage = StorageManager(build_storage_array(default_platform))
        hcache = HCacheEngine(tiny_model, storage)
        hcache.register_context("c")
        hcache.save_states("c", result.hidden_states, tokens, kv_cache=reference)
        hcache.seal("c")
        via_hidden = hcache.restore("c")

        # KV offload path: the same engine with every layer KV-offloaded.
        kv_storage = StorageManager(build_storage_array(default_platform))
        kv_offload = HCacheEngine(
            tiny_model, kv_storage, scheme=PartitionScheme.pure_kv(tiny_config.n_layers)
        )
        kv_offload.register_context("c")
        kv_offload.save_states("c", result.hidden_states, tokens, kv_cache=reference)
        kv_offload.seal("c")
        via_kv = kv_offload.restore("c")

        # Recomputation path.
        via_recompute = KVCache(tiny_config)
        tiny_model.forward(tokens, via_recompute)

        assert reference.equals(via_hidden, atol=0.0)
        assert reference.equals(via_kv, atol=0.0)
        assert reference.equals(via_recompute, atol=0.0)

    def test_continuations_agree_across_paths(self, tiny_model, tiny_config, default_platform):
        tokens = np.random.default_rng(2).integers(0, tiny_config.vocab_size, size=15)
        reference = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, reference, capture_hidden=True)
        storage = StorageManager(build_storage_array(default_platform))
        hcache = HCacheEngine(tiny_model, storage)
        hcache.register_context("c")
        hcache.save_states("c", result.hidden_states, tokens, kv_cache=reference)
        restored = hcache.restore("c")

        def continue_greedy(cache: KVCache, n: int) -> list[int]:
            out = []
            logits = result.logits[-1]
            for _ in range(n):
                token = int(np.argmax(logits))
                out.append(token)
                logits = tiny_model.forward(np.array([token]), cache).logits[-1]
            return out

        assert continue_greedy(reference, 8) == continue_greedy(restored, 8)


class TestServingPipeline:
    @pytest.fixture(scope="class")
    def workload(self):
        convs = ShareGPTGenerator(seed=42, mean_rounds=5).sample_many(12)
        return build_workload(convs, rate_per_second=0.3, seed=43)

    def test_full_serving_comparison(self, seven_b, default_platform, workload):
        reports = simulate_methods(
            seven_b, default_platform, DEFAULT_METHODS, workload
        )
        assert set(reports) == {"recompute", "kv-offload", "hcache", "ideal"}
        for report in reports.values():
            assert report.n_requests == len(workload)
            assert report.mean_ttft > 0

    def test_throughput_similar_across_methods(self, seven_b, default_platform, workload):
        """§6.1.1: sustainable throughput differs by ~11% at most when the
        system is not overloaded."""
        reports = simulate_methods(
            seven_b, default_platform, DEFAULT_METHODS, workload
        )
        rates = [r.tokens_per_second for r in reports.values()]
        assert max(rates) / min(rates) < 1.2

    def test_13b_serving_works(self, thirteen_b, default_platform):
        convs = ShareGPTGenerator(seed=44, mean_rounds=3, max_history=8192).sample_many(5)
        workload = build_workload(convs, rate_per_second=0.2, seed=45)
        reports = simulate_methods(
            thirteen_b,
            default_platform,
            DEFAULT_METHODS,
            workload,
        )
        assert reports["hcache"].mean_ttft < reports["kv-offload"].mean_ttft


class TestNumericServingAtScale:
    def test_many_sessions_interleaved(
        self, tiny_model, tiny_config, default_platform, serve_round
    ):
        """Several conversations with interleaved rounds and evictions all
        stay consistent."""
        storage = StorageManager(build_storage_array(default_platform))
        engine = NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))
        rng = np.random.default_rng(46)
        n_sessions = 4
        transcripts: dict[str, list[list[int]]] = {}
        for s in range(n_sessions):
            engine.open_session(f"s{s}")
            transcripts[f"s{s}"] = []
        for round_idx in range(3):
            for s in range(n_sessions):
                sid = f"s{s}"
                prompt = rng.integers(0, tiny_config.vocab_size, size=5 + s)
                transcripts[sid].append(serve_round(engine, sid, prompt, 3))
                engine.evict(sid)
        # Each session produced three rounds of three tokens.
        for sid, rounds in transcripts.items():
            assert len(rounds) == 3
            assert all(len(r) == 3 for r in rounds)

    def test_storage_freed_after_close(
        self, tiny_model, tiny_config, default_platform, serve_round
    ):
        storage = StorageManager(build_storage_array(default_platform))
        engine = NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))
        engine.open_session("s")
        serve_round(engine, "s", np.arange(8) % tiny_config.vocab_size, 4)
        engine.evict("s")
        assert storage.array.total_used_bytes > 0
        engine.close_session("s")
        assert storage.array.total_used_bytes == 0
