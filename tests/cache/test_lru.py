"""Tests for the size-aware LRU cache."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUCache
from repro.errors import CapacityError, ConfigError


class TestBasics:
    def test_miss_then_hit(self):
        cache = LRUCache(100)
        assert not cache.lookup("a", 10)
        assert cache.lookup("a", 10)
        assert cache.stats.hit_ratio == 0.5

    def test_capacity_respected(self):
        cache = LRUCache(100)
        for key in "abcde":
            cache.lookup(key, 30)
            assert cache.used <= 100

    def test_eviction_order_is_lru(self):
        cache = LRUCache(100)
        cache.lookup("a", 40)
        cache.lookup("b", 40)
        cache.lookup("a", 40)  # touch a
        cache.lookup("c", 40)  # evicts b (LRU)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_resize_on_reaccess(self):
        """Conversations grow between rounds; the entry resizes."""
        cache = LRUCache(100)
        cache.lookup("a", 10)
        cache.lookup("a", 50)
        assert cache.used == 50

    def test_oversized_entry_rejected(self):
        cache = LRUCache(100)
        with pytest.raises(CapacityError):
            cache.lookup("a", 101)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(100).lookup("a", 0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(0)


class TestStats:
    def test_eviction_count(self):
        cache = LRUCache(50)
        for key in "abcd":
            cache.lookup(key, 30)
        assert cache.stats.evictions == 3

    def test_explicit_evict(self):
        cache = LRUCache(100)
        cache.lookup("a", 25)
        assert cache.evict("a") == 25
        assert cache.used == 0

    def test_evict_missing_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(100).evict("ghost")

    def test_lru_order(self):
        cache = LRUCache(100)
        for key in "abc":
            cache.lookup(key, 10)
        cache.lookup("a", 10)
        assert cache.keys_lru_order() == ("b", "c", "a")

    def test_hit_ratio_empty(self):
        assert LRUCache(10).stats.hit_ratio == 0.0

    def test_free_accounting(self):
        cache = LRUCache(100)
        cache.lookup("a", 30)
        assert cache.free == 70
        assert len(cache) == 1
