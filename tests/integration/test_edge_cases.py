"""Edge-case and failure-injection tests across module boundaries."""

from __future__ import annotations

import runpy
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import HCacheEngine, hcache_timing, method_timing
from repro.core.profiler import build_storage_array
from repro.engine import ServingSimulator
from repro.engine.request import RequestSpec
from repro.errors import AllocationError
from repro.models import KVCache, Transformer, model_preset
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import StorageArray, StorageManager

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestPublicAPI:
    def test_quickstart_demo_runs(self, capsys):
        quickstart = runpy.run_path(str(REPO_ROOT / "examples" / "quickstart.py"))
        quickstart["main"]()
        out = capsys.readouterr().out
        assert "restored KV cache identical to the evicted one: True" in out
        assert "hcache" in out

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestServingEdgeCases:
    def test_single_token_output(self, seven_b, default_platform):
        """A request generating exactly one token finishes at its first
        token; TBT is zero."""
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "hcache", seven_b, default_platform)
        )
        report = sim.run(
            [RequestSpec("r", "s", 0.0, history_tokens=500, input_tokens=8, output_tokens=1)]
        )
        assert report.n_requests == 1
        assert report.mean_tbt == 0.0

    def test_burst_arrivals_all_served(self, seven_b, default_platform):
        """Many simultaneous arrivals queue on memory and all complete."""
        specs = [
            RequestSpec(f"r{i}", f"s{i}", 0.0, 2000, 32, 8) for i in range(24)
        ]
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "hcache", seven_b, default_platform)
        )
        report = sim.run(specs)
        assert report.n_requests == 24

    def test_late_arrival_idles_engine(self, seven_b, default_platform):
        """The engine fast-forwards over idle gaps instead of spinning."""
        specs = [
            RequestSpec("early", "a", 0.0, 0, 16, 4),
            RequestSpec("late", "b", 500.0, 0, 16, 4),
        ]
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "ideal", seven_b, default_platform)
        )
        report = sim.run(specs)
        assert report.n_requests == 2
        # Duration spans the gap; TTFTs stay small.
        assert report.duration > 499
        assert report.mean_ttft < 0.1

    def test_queue_delay_counted_in_ttft(self, thirteen_b, default_platform):
        """When memory admits one request at a time, the second's TTFT
        includes waiting for the first to release its KV."""
        specs = [
            RequestSpec("a", "sa", 0.0, 12000, 64, 64),
            RequestSpec("b", "sb", 0.0, 12000, 64, 64),
        ]
        sim = ServingSimulator(
            thirteen_b,
            default_platform,
            partial(method_timing, "ideal", thirteen_b, default_platform),
        )
        sim.run(specs)
        records = {r.request_id: r for r in sim.responses}
        queue_delay = records["b"].admitted_at - records["b"].arrival_time
        assert queue_delay > 0.5 * records["a"].ttft

    def test_recompute_history_dominates_budget(self, seven_b, default_platform):
        """A 12K-token recomputation chunked through SplitFuse takes many
        iterations; its TTFT reflects the full history prefill."""
        rec, ideal = (
            ServingSimulator(
                seven_b, default_platform, partial(method_timing, name, seven_b, default_platform)
            ).run([RequestSpec("r", "s", 0.0, 12000, 64, 8)])
            for name in ("recompute", "ideal")
        )
        assert rec.mean_ttft > 5 * ideal.mean_ttft


class TestStorageFailureInjection:
    def test_capacity_exhaustion_surfaces_cleanly(self, tiny_model, default_platform):
        """Filling host storage raises AllocationError without corrupting
        already-saved state."""
        tiny_capacity = 64 * 1024  # bytes — a few chunks only
        storage = StorageManager(
            build_storage_array(default_platform), capacity_bytes=tiny_capacity
        )
        engine = HCacheEngine(tiny_model, storage)
        engine.register_context("c")
        config = tiny_model.config
        tokens = np.arange(10) % config.vocab_size
        cache = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        engine.save_states("c", result.hidden_states, tokens, kv_cache=cache)
        saved_before = engine.saved_tokens("c")
        big = np.arange(200) % config.vocab_size
        big_cache = KVCache(tiny_model.config)
        big_result = tiny_model.forward(big, big_cache, capture_hidden=True)
        with pytest.raises(AllocationError):
            fresh = StorageManager(
                build_storage_array(default_platform), capacity_bytes=tiny_capacity
            )
            runs = [(layer, "hidden") for layer in range(config.n_layers)]
            fresh.register_context("d", config.n_layers, config.hidden_size, runs=runs)
            for layer in range(config.n_layers):
                fresh.append("d", layer, big_result.hidden_states[layer])
        # The original engine's context is intact and still restorable.
        assert engine.saved_tokens("c") == saved_before
        assert cache.equals(engine.restore("c"))

    def test_save_onto_a_full_device_is_refused_up_front(self, tiny_model):
        """A sealed partial and the full chunk that replaces it share the
        device for a moment.  On one device the context's two chunk slots
        fill, the save that completes the chunk is refused before any
        layer's rows move, and the 100 sealed tokens still restore."""
        config = tiny_model.config
        tokens = np.arange(128) % config.vocab_size

        def engine_with(capacity_bytes: int) -> HCacheEngine:
            spec = SSDSpec("one-ssd", read_bandwidth=GB, write_bandwidth=GB,
                           capacity_bytes=capacity_bytes)
            storage = StorageManager(StorageArray([spec], link_bandwidth=GB))
            engine = HCacheEngine(tiny_model, storage)
            engine.register_context("c")
            return engine

        engine = engine_with(engine_with(GB).storage.append_bytes("c", 128))
        cache = KVCache(config)
        first = tiny_model.forward(tokens[:100], cache, capture_hidden=True)
        engine.save_states("c", first.hidden_states, tokens[:100], kv_cache=cache)
        engine.seal("c")
        sealed = engine.restore("c")
        storage = engine.storage
        used, allocated = storage.array.total_used_bytes, storage.allocated_bytes
        rest = tiny_model.forward(tokens[100:], cache, capture_hidden=True)
        with pytest.raises(AllocationError):
            engine.save_states("c", rest.hidden_states, tokens[100:], kv_cache=cache)
        assert engine.saved_tokens("c") == 100
        assert (storage.array.total_used_bytes, storage.allocated_bytes) == (used, allocated)
        assert sealed.equals(engine.restore("c"))

    def test_free_context_mid_generation(self, tiny_model, default_platform):
        """Dropping a context invalidates restores but leaves others."""
        storage = StorageManager(build_storage_array(default_platform))
        engine = HCacheEngine(tiny_model, storage)
        config = tiny_model.config
        for name in ("keep", "drop"):
            engine.register_context(name)
            tokens = (np.arange(12) + hash(name) % 7) % config.vocab_size
            cache = KVCache(tiny_model.config)
            result = tiny_model.forward(tokens, cache, capture_hidden=True)
            engine.save_states(name, result.hidden_states, tokens, kv_cache=cache)
        engine.drop_context("drop")
        assert engine.has_context("keep")
        assert len(engine.restore("keep")) == 12


class TestCrossModelConsistency:
    @pytest.mark.parametrize("model_name", ["tiny-llama", "tiny-opt"])
    def test_full_stack_for_both_architectures(self, model_name, default_platform):
        """The whole save/evict/restore stack works for RoPE+RMSNorm and
        for no-RoPE+LayerNorm architectures alike."""
        config = model_preset(model_name)
        model = Transformer.from_seed(config, seed=9)
        storage = StorageManager(build_storage_array(default_platform))
        _, decision = hcache_timing(config, default_platform, 1024)
        engine = HCacheEngine(model, storage, scheme=decision.scheme)
        engine.register_context("c")
        tokens = np.arange(30) % config.vocab_size
        cache = KVCache(model.config)
        result = model.forward(tokens, cache, capture_hidden=True)
        engine.save_states("c", result.hidden_states, tokens, kv_cache=cache)
        engine.seal("c")
        assert cache.equals(engine.restore("c"), atol=1e-6)
