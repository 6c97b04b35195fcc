"""Breakdown and kernel-validation tests for the chunk-streamed restore.

Bit-exactness of every restore shape against the naive whole-layer
reference lives in ``test_restore_matrix.py``; this file covers the
per-stage :class:`RestoreBreakdown` accounting, the projection kernel's
input validation, and DRAM- vs SSD-backed arrays restoring identically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.simulator import platform_preset
from repro.storage import StorageManager


def build_engine(config, platform_name="default", scheme=None, granule_chunks=4):
    model = Transformer.from_seed(config, seed=11)
    manager = StorageManager(build_storage_array(platform_preset(platform_name)))
    engine = HCacheEngine(
        model, manager, scheme=scheme, stream_granule_chunks=granule_chunks
    )
    return model, engine


def save_rounds(engine, model, config, n_tokens, seal=True, block=37):
    """Persist a prefilled context in several append blocks."""
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, config.vocab_size, size=n_tokens)
    engine.register_context("c")
    result, cache = model.prefill(tokens, capture_hidden=True)
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


class TestRestoreBreakdown:
    def test_stage_accounting_filled(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_rounds(engine, model, config, 256)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats)
        assert stats.n_tokens == 256
        # 256 tokens, 4-chunk granules; layer 0 is token-sourced, so it is
        # projected (one granule) but streams nothing.
        stored_layers = config.n_layers - 1
        assert stats.granules == stored_layers
        assert stats.device_reads == stored_layers * 4
        assert stats.read_s > 0
        assert stats.recompute_s > 0
        assert stats.projection.chunks == config.n_layers
        assert stats.projection.norm_s > 0
        assert stats.projection.gemm_s > 0
        assert stats.projection.rope_s > 0  # tiny-llama uses RoPE
        assert stats.projection.elementwise_s == pytest.approx(
            stats.projection.norm_s + stats.projection.rope_s
        )

    def test_no_rope_model_reports_zero_rope_time(self):
        config = model_preset("tiny-opt")
        model, engine = build_engine(config)
        save_rounds(engine, model, config, 128)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats)
        assert stats.projection.rope_s == 0.0
        assert stats.projection.gemm_s > 0

    def test_pipelined_makespan_bounded_by_serial(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_rounds(engine, model, config, 256)
        stats = RestoreBreakdown()
        engine.restore("c", stats=stats)
        assert stats.modelled_io_s > 0
        assert stats.modelled_pipelined_s >= stats.modelled_io_s
        assert stats.modelled_pipelined_s <= stats.modelled_serial_s + 1e-12

    def test_recompute_prefix_overlaps_stream(self):
        config = model_preset("tiny-llama")
        scheme = PartitionScheme.with_recompute_prefix(config.n_layers, 1)
        model, engine = build_engine(config, scheme=scheme)
        save_rounds(engine, model, config, 128)
        stats = RestoreBreakdown()
        restored = engine.restore("c", stats=stats)
        assert stats.recompute_s > 0
        assert len(restored) == 128
        # The prefix replay needs no stored bytes: pipelined < serial.
        assert stats.modelled_pipelined_s < stats.modelled_serial_s

    def test_untimed_restore_leaves_no_stats(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_rounds(engine, model, config, 64)
        restored = engine.restore("c")
        assert len(restored) == 64


class TestChunkProjectionValidation:
    def test_bad_chunk_shape_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = model.restore_workspace(np.arange(8), 8)
        k = np.empty((4, config.n_kv_heads, config.head_dim), dtype=np.float32)
        v = np.empty_like(k)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, np.zeros((4, 3), np.float32), 0, k, v, ws)

    def test_chunk_beyond_workspace_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = model.restore_workspace(np.arange(8), 4)
        h = np.zeros((8, config.hidden_size), np.float32)
        k = np.empty((8, config.n_kv_heads, config.head_dim), dtype=np.float32)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, h, 0, k, np.empty_like(k), ws)

    def test_rows_outside_positions_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        ws = model.restore_workspace(np.arange(8), 8)
        h = np.zeros((8, config.hidden_size), np.float32)
        k = np.empty((8, config.n_kv_heads, config.head_dim), dtype=np.float32)
        with pytest.raises(ConfigError):
            model.project_kv_chunk(0, h, 4, k, np.empty_like(k), ws)

    def test_head_ranges_must_tile_the_kv_heads(self):
        config = model_preset("tiny-llama")  # 4 KV heads
        model = Transformer.from_seed(config, seed=0)
        for bad in ([(0, 1), (2, 4)], [(0, 2), (1, 4)], [(0, 2)], [(0, 0), (0, 4)]):
            with pytest.raises(ConfigError):
                model.restore_workspace(np.arange(8), 8, bad)

    @pytest.mark.parametrize("preset", ["tiny-llama", "tiny-opt"])
    def test_head_sliced_chunk_matches_unsliced(self, preset):
        """Head ranges only slice the elementwise merge: same bytes."""
        config = model_preset(preset)
        model = Transformer.from_seed(config, seed=3)
        hidden = np.random.default_rng(0).normal(size=(40, config.hidden_size))
        hidden = hidden.astype(np.float32)
        k_ref, v_ref = model.project_kv(1, hidden, np.arange(40))
        ranges = [(0, 1), (1, config.n_kv_heads)]
        ws = model.restore_workspace(np.arange(40), 40, ranges)
        k = np.empty_like(k_ref)
        v = np.empty_like(v_ref)
        model.project_kv_chunk(1, hidden, 0, k, v, ws)
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)

    def test_invalid_granule_chunks_rejected(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=0)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        with pytest.raises(ConfigError):
            HCacheEngine(model, manager, stream_granule_chunks=0)

    def test_chunk_matches_whole_layer_projection(self):
        """project_kv_chunk over row slices == project_kv over the layer."""
        config = GQA_CONFIG
        model = Transformer.from_seed(config, seed=3)
        rng = np.random.default_rng(0)
        n = 197
        hidden = rng.normal(size=(n, config.hidden_size)).astype(np.float32)
        positions = np.arange(n)
        k_ref, v_ref = model.project_kv(1, hidden, positions)
        ws = model.restore_workspace(positions, 64)
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
