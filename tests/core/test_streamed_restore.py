"""Device-accounting and kernel-validation tests for the chunk-streamed restore.

Bit-exactness of every restore shape against the naive whole-layer
reference lives in ``test_restore_matrix.py``; this file covers what a
restore costs the devices (their ``op_counts`` / ``busy_seconds``), the
projection kernel's input validation and its reading of the model's live
weights, and DRAM- vs SSD-backed arrays restoring identically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden
from repro.models.transformer import RestoreWorkspace, Transformer
from repro.simulator import platform_preset
from repro.storage import StorageManager


def build_engine(config, platform_name="default", scheme=None):
    model = Transformer.from_seed(config, seed=11)
    manager = StorageManager(build_storage_array(platform_preset(platform_name)))
    return model, HCacheEngine(model, manager, scheme=scheme)


def device_totals(storage):
    """``(busy seconds, reads)`` summed over the array's devices so far."""
    devices = storage.array.devices
    return (
        sum(device.busy_seconds for device in devices),
        sum(device.op_counts[0] for device in devices),
    )


def save_rounds(engine, model, config, n_tokens, seal=True, block=37):
    """Persist a prefilled context in several append blocks."""
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, config.vocab_size, size=n_tokens)
    engine.register_context("c")
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
    hidden = result.hidden_states
    for start in range(0, n_tokens, block):
        stop = min(start + block, n_tokens)
        engine.save_states(
            "c", [h[start:stop] for h in hidden], tokens[start:stop], kv_cache=cache
        )
    if seal:
        engine.seal("c")
    return cache, hidden


GQA_CONFIG = replace(
    model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2, n_heads=4
)


class TestStorageTiers:
    def test_dram_tier_matches_ssd_tier(self):
        config = model_preset("tiny-llama")
        model_a, engine_ssd = build_engine(config, "default")
        model_b, engine_dram = build_engine(config, "a100-dram")
        save_rounds(engine_ssd, model_a, config, 170)
        save_rounds(engine_dram, model_b, config, 170)
        a = engine_ssd.restore("c")
        b = engine_dram.restore("c")
        assert a.equals(b, atol=0.0)


class TestRestoreDeviceCost:
    def test_device_counters_count_every_granule_read(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_rounds(engine, model, config, 256)
        storage = engine.storage
        granules = []
        real_read = storage.read_granule_into

        def read_granule_into(context_id, spec, out):
            granules.append(spec)
            return real_read(context_id, spec, out)

        storage.read_granule_into = read_granule_into
        before = device_totals(storage)
        assert len(engine.restore("c")) == 256
        busy, reads = (after - b for after, b in zip(device_totals(storage), before))
        # 256 tokens, 4-chunk granules; layer 0 is token-sourced, so it is
        # projected (one granule) but streams nothing.
        stored_layers = config.n_layers - 1
        assert len(granules) == stored_layers
        assert 0 not in {spec.layer for spec in granules}
        assert reads == stored_layers * 4
        assert busy > 0

    def test_recompute_prefix_costs_no_device_time(self):
        """The token-sourced layer 0 reads nothing: the restore pays the
        device seconds of the stored layers alone."""
        config = model_preset("tiny-llama")
        device_cost = {}
        for name, scheme in (
            ("prefix", PartitionScheme.with_recompute_prefix(config.n_layers, 1)),
            ("all-stored", PartitionScheme.pure_hcache(config.n_layers)),
        ):
            model, engine = build_engine(config, scheme=scheme)
            save_rounds(engine, model, config, 128)
            before = device_totals(engine.storage)
            assert len(engine.restore("c")) == 128
            busy, reads = (after - b for after, b in zip(device_totals(engine.storage), before))
            device_cost[name] = busy, reads
        busy, reads = device_cost["prefix"]
        all_busy, all_reads = device_cost["all-stored"]
        stored = (config.n_layers - 1) / config.n_layers
        assert reads == all_reads * stored
        assert busy == pytest.approx(all_busy * stored)


class TestLiveWeights:
    @pytest.mark.parametrize("name", ["wk", "wv", "attn_norm"])
    @pytest.mark.parametrize("preset", ["tiny-llama", "tiny-opt"])
    def test_restore_after_an_in_place_weight_update_projects_the_new_weights(
        self, preset, name
    ):
        """The kernel reads the model's own weights: one updated in place
        between two restores is the one the second restore projects —
        with RoPE and rmsnorm (tiny-llama) or without (tiny-opt)."""
        config = model_preset(preset)
        model, engine = build_engine(config)
        _, hidden = save_rounds(engine, model, config, 130)
        assert engine.restore("c").equals(
            naive_restore_cache_from_hidden(model, hidden), atol=0.0
        )
        weight = getattr(model.weights.layers[config.n_layers - 1], name)
        weight[...] = np.random.default_rng(1).normal(0.0, 0.1, size=weight.shape)
        assert engine.restore("c").equals(
            naive_restore_cache_from_hidden(model, hidden), atol=0.0
        )


class TestChunkProjectionValidation:
    def test_bad_chunk_shape_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = RestoreWorkspace(model.config, np.arange(8), 8)
        k = np.empty((4, config.n_kv_heads, config.head_dim), dtype=np.float32)
        v = np.empty_like(k)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, np.zeros((4, 3), np.float32), 0, k, v, ws)

    def test_chunk_beyond_workspace_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = RestoreWorkspace(model.config, np.arange(8), 4)
        h = np.zeros((8, config.hidden_size), np.float32)
        k = np.empty((8, config.n_kv_heads, config.head_dim), dtype=np.float32)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, h, 0, k, np.empty_like(k), ws)

    def test_rows_outside_positions_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = RestoreWorkspace(model.config, np.arange(8), 8)
        h = np.zeros((8, config.hidden_size), np.float32)
        k = np.empty((8, config.n_kv_heads, config.head_dim), dtype=np.float32)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, h, 4, k, np.empty_like(k), ws)

    @pytest.mark.parametrize("preset", ["tiny-llama", "tiny-opt"])
    def test_one_chunk_matches_project_kv(self, preset):
        """With and without RoPE (K through scratch vs straight into the
        cache), the fused kernel lands project_kv's bytes."""
        config = model_preset(preset)
        model = Transformer.from_seed(config, seed=3)
        hidden = np.random.default_rng(0).normal(size=(40, config.hidden_size))
        hidden = hidden.astype(np.float32)
        k_ref, v_ref = model.project_kv(1, hidden, np.arange(40))
        ws = RestoreWorkspace(model.config, np.arange(40), 40)
        k = np.empty_like(k_ref)
        v = np.empty_like(v_ref)
        model.project_kv_chunk(1, hidden, 0, k, v, ws)
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)

    def test_chunk_matches_whole_layer_projection(self):
        """project_kv_chunk over row slices == project_kv over the layer."""
        config = GQA_CONFIG
        model = Transformer.from_seed(config, seed=3)
        rng = np.random.default_rng(0)
        n = 197
        hidden = rng.normal(size=(n, config.hidden_size)).astype(np.float32)
        positions = np.arange(n)
        k_ref, v_ref = model.project_kv(1, hidden, positions)
        ws = RestoreWorkspace(model.config, positions, 64)
        cache = KVCache(config)
        cache.reserve(n)
        k_view, v_view = cache.install_view(1, n)
        for start in range(0, n, 64):
            stop = min(start + 64, n)
            model.project_kv_chunk(
                1, hidden[start:stop], start,
                k_view[start:stop], v_view[start:stop], ws,
            )
        assert np.array_equal(k_view, k_ref)
        assert np.array_equal(v_view, v_ref)
