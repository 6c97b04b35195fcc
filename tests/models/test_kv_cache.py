"""Tests for the KV cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, StateError
from repro.models.kv_cache import KVCache


def kv_rows(config, n, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n, config.n_kv_heads, config.head_dim)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


class TestAppendAndGet:
    def test_empty_cache(self, tiny_config):
        cache = KVCache(tiny_config)
        assert len(cache) == 0

    def test_append_grows(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        for layer in range(tiny_config.n_layers):
            cache.append(layer, k, v)
        assert len(cache) == 3

    def test_inconsistent_layers_detected(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 2)
        cache.append(0, k, v)
        with pytest.raises(StateError):
            len(cache)

    def test_get_returns_appended(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 4, seed=9)
        cache.append(1, k, v)
        got_k, got_v = cache.get(1)
        assert np.array_equal(got_k, k)
        assert np.array_equal(got_v, v)

    def test_bad_shape_rejected(self, tiny_config):
        cache = KVCache(tiny_config)
        with pytest.raises(ConfigError):
            cache.append(0, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_mismatched_kv_counts_rejected(self, tiny_config):
        cache = KVCache(tiny_config)
        k, _ = kv_rows(tiny_config, 2)
        _, v = kv_rows(tiny_config, 3)
        with pytest.raises(ConfigError):
            cache.append(0, k, v)

    def test_layer_out_of_range(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 1)
        with pytest.raises(ConfigError):
            cache.append(99, k, v)


class TestInstallAndPacking:
    def test_install_replaces(self, tiny_config):
        cache = KVCache(tiny_config)
        k1, v1 = kv_rows(tiny_config, 2, seed=1)
        k2, v2 = kv_rows(tiny_config, 5, seed=2)
        cache.append(0, k1, v1)
        cache.install(0, k2, v2)
        got_k, _ = cache.get(0)
        assert got_k.shape[0] == 5

    def test_packed_roundtrip(self, tiny_config):
        """The on-storage packed format restores bit-exactly."""
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 7, seed=3)
        cache.append(2, k, v)
        packed = cache.packed_layer(2)
        other = KVCache(tiny_config)
        other.install_view(2, 7)
        other.install_packed_rows(2, 0, packed)
        got_k, got_v = other.get(2)
        assert np.array_equal(got_k, k)
        assert np.array_equal(got_v, v)

    def test_packed_width(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        cache.append(0, k, v)
        assert cache.packed_layer(0).shape == (3, 2 * tiny_config.kv_size)

    def test_install_packed_bad_width(self, tiny_config):
        cache = KVCache(tiny_config)
        cache.install_view(0, 3)
        with pytest.raises(ConfigError):
            cache.install_packed_rows(0, 0, np.zeros((3, 7)))

    def test_install_packed_rows_chunked_roundtrip(self, tiny_config):
        """Chunk-granular packed installs equal one whole-layer install."""
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 11, seed=4)
        cache.append(1, k, v)
        packed = cache.packed_layer(1)
        other = KVCache(tiny_config)
        other.install_view(1, 11)
        for start in range(0, 11, 4):
            stop = min(start + 4, 11)
            other.install_packed_rows(1, start, packed[start:stop])
        got_k, got_v = other.get(1)
        assert np.array_equal(got_k, k)
        assert np.array_equal(got_v, v)

    def test_install_packed_rows_outside_live_region_rejected(self, tiny_config):
        cache = KVCache(tiny_config)
        cache.install_view(0, 4)
        packed = np.zeros((3, 2 * tiny_config.kv_size), dtype=np.float32)
        with pytest.raises(ConfigError):
            cache.install_packed_rows(0, 2, packed)


class TestEvictionAndComparison:
    def test_truncate(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 10)
        for layer in range(tiny_config.n_layers):
            cache.append(layer, k, v)
        cache.truncate(4)
        assert len(cache) == 4

    def test_clear(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 10)
        for layer in range(tiny_config.n_layers):
            cache.append(layer, k, v)
        cache.clear()
        assert len(cache) == 0

    def test_truncate_negative_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            KVCache(tiny_config).truncate(-1)

    def test_equals_exact(self, tiny_config):
        a, b = KVCache(tiny_config), KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        for layer in range(tiny_config.n_layers):
            a.append(layer, k, v)
            b.append(layer, k, v)
        assert a.equals(b)

    def test_equals_detects_difference(self, tiny_config):
        a, b = KVCache(tiny_config), KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        for layer in range(tiny_config.n_layers):
            a.append(layer, k, v)
            b.append(layer, k + 1e-3, v)
        assert not a.equals(b)
        assert a.equals(b, atol=1e-2)

    def test_equals_shape_mismatch(self, tiny_config):
        a, b = KVCache(tiny_config), KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        a.append(0, k, v)
        assert not a.equals(b)

    def test_nbytes(self, tiny_config):
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 8)
        for layer in range(tiny_config.n_layers):
            cache.append(layer, k, v)
        expected = tiny_config.n_layers * (k.nbytes + v.nbytes)
        assert cache.nbytes() == expected
