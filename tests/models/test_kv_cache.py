"""Tests for the KV cache."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.errors import ConfigError, StateError
from repro.models.kv_cache import KVCache, SlabArena, slab_tokens
from repro.models.reference import NaiveKVCache


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
        k_view, v_view = cache.install_view(0, 5)
        k_view[...], v_view[...] = k2, v2
        got_k, _ = cache.get(0)
        assert got_k.shape[0] == 5

    def test_packed_roundtrip(self, tiny_config):
        """The on-storage packed format restores bit-exactly."""
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 7, seed=3)
        cache.append(2, k, v)
        packed = cache.packed_rows(2, 0, 7)
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
        assert cache.packed_rows(0, 0, 3).shape == (3, 2 * tiny_config.kv_size)

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
        packed = cache.packed_rows(1, 0, 11)
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

    @pytest.mark.parametrize("cache_type", [KVCache, NaiveKVCache])
    def test_equals_atol_is_absolute(self, tiny_config, cache_type):
        """``atol`` bounds the difference alone: values near 10 that differ
        by 1.5e-4 are not equal within 1e-4 (a relative term of 1e-5, numpy's
        default, would widen the band there to 2e-4)."""
        a, b = cache_type(tiny_config), cache_type(tiny_config)
        k, v = kv_rows(tiny_config, 3)
        for layer in range(tiny_config.n_layers):
            a.append(layer, k + 10, v)
            b.append(layer, k + 10 + np.float32(1.5e-4), v)
        assert not a.equals(b, atol=1e-4)
        assert not b.equals(a, atol=1e-4)
        assert a.equals(b, atol=2e-4)

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


def fill(cache, config, n, seed=0):
    k, v = kv_rows(config, n, seed)
    for layer in range(config.n_layers):
        cache.append(layer, k, v)
    return k, v


class TestSlabArena:
    @pytest.mark.parametrize(
        "n, size_class",
        [(0, 64), (1, 64), (64, 64), (65, 128), (540, 576), (564, 576), (576, 576),
         (577, 640), (1024, 1024), (1025, 1152), (4000, 4096)],
    )
    def test_size_classes_come_from_the_requested_capacity(self, n, size_class):
        assert slab_tokens(n) == size_class

    def test_a_slab_wastes_under_64_rows_or_an_eighth(self):
        for n in range(1, 5000):
            size_class = slab_tokens(n)
            assert size_class >= n and size_class % 64 == 0
            assert size_class - n < max(64, size_class / 8)

    def test_take_and_give_recycle_one_slab(self, tiny_config):
        arena = SlabArena()
        keys, values = arena.take(tiny_config, 540)
        assert keys.shape == (tiny_config.n_layers, 576, tiny_config.n_kv_heads,
                              tiny_config.head_dim) == values.shape
        assert arena.allocations == 1 and arena.held_bytes == 0
        arena.give((keys, values))
        assert arena.held_bytes == keys.nbytes + values.nbytes
        again = arena.take(tiny_config, 564)  # same class: the same memory
        assert again[0] is keys and again[1] is values
        assert arena.allocations == 1 and arena.held_bytes == 0

    def test_retention_stays_under_the_live_high_water_mark(self, tiny_config):
        """Two size classes taken and given in turns: what the arena holds
        plus what is out never exceeds the most that was out at once."""
        arena = SlabArena()
        rng = np.random.default_rng(3)
        live: list = []
        high_water = 0
        for step in range(400):
            if live and (len(live) > 6 or rng.random() < 0.45):
                arena.give(live.pop(int(rng.integers(len(live)))))
            else:
                live.append(arena.take(tiny_config, (100, 540)[step // 25 % 2]))
            out = sum(k.nbytes + v.nbytes for k, v in live)
            high_water = max(high_water, out)
            assert arena.held_bytes + out <= high_water
        assert arena.allocations < 200

    def test_a_cache_grows_onto_a_larger_slab_and_gives_the_old_one_back(
        self, tiny_config
    ):
        arena = SlabArena()
        cache = arena.cache(tiny_config, 40)
        assert cache.capacity == 64
        k, v = fill(cache, tiny_config, 40)
        old = cache.get(0)[0].base
        cache.reserve(100)
        assert cache.capacity == 128 and arena.allocations == 2
        assert np.array_equal(cache.get(0)[0], k) and np.array_equal(cache.get(3)[1], v)
        assert arena.take(tiny_config, 64)[0] is old  # given back after the copy

    def test_a_released_cache_gives_its_slab_back_and_refuses_every_use(
        self, tiny_config
    ):
        arena = SlabArena()
        cache = arena.cache(tiny_config, 32)
        k, v = fill(cache, tiny_config, 8)
        cache.release()
        assert arena.held_bytes > 0
        for use in (
            lambda: cache.get(0),
            lambda: cache.append(0, k, v),
            lambda: cache.install_view(0, 8),
            lambda: len(cache),
            lambda: cache.reserve(64),
            cache.release,
        ):
            with pytest.raises(StateError, match="gave its slab back"):
                use()

    def test_caches_without_an_arena_keep_exact_reserve_and_never_release(
        self, tiny_config
    ):
        cache = KVCache(tiny_config)
        cache.reserve(8)
        assert cache.capacity == 16  # the doubling policy's floor, not a size class
        cache.reserve(100)
        assert cache.capacity == 100
        k, _ = fill(cache, tiny_config, 5)
        cache.release()  # nothing to give back: still a working cache
        assert np.array_equal(cache.get(2)[0], k)

    def test_a_deep_copy_has_plain_buffers(self, tiny_config):
        arena = SlabArena()
        cache = arena.cache(tiny_config, 20)
        fill(cache, tiny_config, 20)
        clone = copy.deepcopy(cache)
        assert clone.equals(cache)
        cache.release()
        clone.reserve(1000)
        clone.release()
        assert clone.capacity == 1000 and arena.allocations == 1

    def test_a_settled_landing_handle_takes_over_the_slab(self, tiny_config):
        from repro.runtime.progress import RestoreProgress

        arena = SlabArena()
        restored = arena.cache(tiny_config, 30)
        k, v = fill(restored, tiny_config, 10)
        handle = restored.landing_handle(10, RestoreProgress("c", tiny_config.n_layers))
        handle.end_landing(restored)
        assert handle.landing is None and np.array_equal(handle.get(1)[0], k)
        with pytest.raises(StateError):
            restored.get(0)  # one owner: the returned cache is dead
        handle.release()
        assert arena.held_bytes == 2 * k.itemsize * tiny_config.n_layers * 64 * k[0].size
