"""Tests for the HCache engine's functional save/restore path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.errors import ConfigError, RestorationError, StateError
from repro.models.kv_cache import KVCache


def prompt(config, n, seed=0):
    return np.random.default_rng(seed).integers(0, config.vocab_size, size=n)


@pytest.fixture
def engine(tiny_model, storage_manager):
    return HCacheEngine(tiny_model, storage_manager)


def saved_engine(engine, tiny_model, tokens):
    engine.register_context("c")
    cache = KVCache(tiny_model.config)
    result = tiny_model.forward(tokens, cache, capture_hidden=True)
    engine.save_states("c", result.hidden_states, tokens, kv_cache=cache)
    return cache


class TestLifecycle:
    def test_register_twice_rejected(self, engine):
        engine.register_context("c")
        with pytest.raises(StateError):
            engine.register_context("c")

    def test_restore_unsaved_rejected(self, engine):
        engine.register_context("c")
        with pytest.raises(RestorationError):
            engine.restore("c")

    def test_saved_tokens_tracked(self, engine, tiny_model, tiny_config):
        tokens = prompt(tiny_config, 9)
        saved_engine(engine, tiny_model, tokens)
        assert engine.saved_tokens("c") == 9

    def test_drop_context(self, engine, tiny_model, tiny_config):
        saved_engine(engine, tiny_model, prompt(tiny_config, 5))
        engine.drop_context("c")
        assert not engine.has_context("c")

    def test_unknown_context_rejected(self, engine):
        with pytest.raises(StateError):
            engine.saved_tokens("ghost")

    def test_register_opens_only_the_stored_runs(self, engine, storage_manager, tiny_config):
        """Layer 0 is token-sourced under the default scheme: no run."""
        engine.register_context("c")
        assert storage_manager.runs("c") == tuple(
            (layer, "hidden") for layer in range(1, tiny_config.n_layers)
        )

    def test_register_opens_kv_runs_of_a_kv_suffix(
        self, tiny_model, storage_manager, tiny_config
    ):
        n = tiny_config.n_layers
        scheme = PartitionScheme.with_kv_suffix(n, 1)
        HCacheEngine(tiny_model, storage_manager, scheme=scheme).register_context("c")
        assert storage_manager.runs("c") == tuple(
            [(layer, "hidden") for layer in range(n - 1)] + [(n - 1, "kv")]
        )
        runs = storage_manager.runs("c")
        assert all(storage_manager.tokens_stored("c", *run) == 0 for run in runs)


class TestSchemes:
    def test_default_scheme_token_sources_layer_0(self, engine, tiny_config):
        assert engine.scheme == PartitionScheme.with_recompute_prefix(
            tiny_config.n_layers, 1
        )

    def test_explicit_scheme_respected(self, tiny_model, storage_manager, tiny_config):
        scheme = PartitionScheme.with_kv_suffix(tiny_config.n_layers, 1)
        eng = HCacheEngine(tiny_model, storage_manager, scheme=scheme)
        assert eng.scheme is scheme

    def test_wrong_scheme_size_rejected(self, tiny_model, storage_manager):
        with pytest.raises(ConfigError):
            HCacheEngine(tiny_model, storage_manager, scheme=PartitionScheme.pure_hcache(3))

    def test_kv_scheme_requires_cache(self, tiny_model, storage_manager, tiny_config):
        scheme = PartitionScheme.with_kv_suffix(tiny_config.n_layers, 1)
        eng = HCacheEngine(tiny_model, storage_manager, scheme=scheme)
        eng.register_context("c")
        tokens = prompt(tiny_config, 4)
        result = tiny_model.forward(tokens, KVCache(tiny_config), capture_hidden=True)
        with pytest.raises(ConfigError):
            eng.save_states("c", result.hidden_states, tokens, kv_cache=None)


class TestRestoration:
    @pytest.mark.parametrize("n_kv", [0, 1, 2])
    def test_lossless_with_kv_suffix(self, tiny_model, storage_manager, tiny_config, n_kv):
        scheme = PartitionScheme.with_kv_suffix(tiny_config.n_layers, n_kv)
        eng = HCacheEngine(tiny_model, storage_manager, scheme=scheme)
        tokens = prompt(tiny_config, 13, seed=n_kv)
        cache = saved_engine(eng, tiny_model, tokens)
        eng.seal("c")
        assert cache.equals(eng.restore("c"))

    @pytest.mark.parametrize("n_re", [1, 2])
    def test_lossless_with_recompute_prefix(
        self, tiny_model, storage_manager, tiny_config, n_re
    ):
        scheme = PartitionScheme.with_recompute_prefix(tiny_config.n_layers, n_re)
        eng = HCacheEngine(tiny_model, storage_manager, scheme=scheme)
        tokens = prompt(tiny_config, 11, seed=n_re)
        cache = saved_engine(eng, tiny_model, tokens)
        assert cache.equals(eng.restore("c"), atol=1e-6)

    def test_incremental_save_restore(self, engine, tiny_model, tiny_config):
        """Saving across multiple generation steps restores the whole run."""
        engine.register_context("c")
        tokens = prompt(tiny_config, 6)
        cache = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        engine.save_states("c", result.hidden_states, tokens, kv_cache=cache)
        step = tiny_model.forward(np.array([3]), cache, capture_hidden=True)
        engine.save_states("c", step.hidden_states, np.array([3]), kv_cache=cache)
        restored = engine.restore("c")
        assert cache.equals(restored, atol=1e-5)
        assert len(restored) == 7

    def test_mismatched_block_rejected(self, engine, tiny_model, tiny_config):
        engine.register_context("c")
        tokens = prompt(tiny_config, 5)
        cache = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        with pytest.raises(ConfigError):
            engine.save_states("c", result.hidden_states, tokens[:3], kv_cache=cache)

    def test_wrong_layer_count_rejected(self, engine, tiny_model, tiny_config):
        engine.register_context("c")
        tokens = prompt(tiny_config, 5)
        cache = KVCache(tiny_model.config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        with pytest.raises(ConfigError):
            engine.save_states("c", result.hidden_states[:2], tokens, kv_cache=cache)


class TestStorageFootprint:
    @pytest.mark.parametrize(
        "make_scheme",
        [None, PartitionScheme.pure_hcache, PartitionScheme.pure_kv],
        ids=["default", "pure_hcache", "pure_kv"],
    )
    def test_reports_what_the_devices_hold(
        self, tiny_model, storage_manager, tiny_config, make_scheme
    ):
        """Whole 64-token chunks, so the devices hold exactly the rows."""
        scheme = make_scheme(tiny_config.n_layers) if make_scheme else None
        eng = HCacheEngine(tiny_model, storage_manager, scheme=scheme)
        n = 2 * storage_manager.tokens_per_chunk
        saved_engine(eng, tiny_model, prompt(tiny_config, n))
        eng.seal("c")
        held = storage_manager.array.total_used_bytes / n
        assert eng.storage_bytes_per_token() == held
