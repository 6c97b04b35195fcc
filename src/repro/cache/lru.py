"""Size-aware LRU eviction order.

:class:`LRUCache` drives GPU-resident KV reuse (§6.4): entries are
contexts whose size is their KV footprint in tokens; capacity is the
GPU's free KV budget.  It is generic so tests can drive it with arbitrary
keys and sizes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import CapacityError, ConfigError


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class LRUCache:
    """LRU with per-entry sizes and a total capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, int] = OrderedDict()
        self._used = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def lookup(self, key: Hashable, size: int) -> bool:
        """Touch ``key``; insert (evicting LRU entries) on a miss.

        Returns True on a hit.  A re-access with a different size resizes
        the entry (a conversation's context grows between rounds); either
        way the entry becomes most recently used.

        Raises:
            CapacityError: if a single entry exceeds the whole capacity.
        """
        if size <= 0:
            raise ConfigError("entry size must be positive")
        if size > self.capacity:
            raise CapacityError(f"entry of size {size} exceeds capacity {self.capacity}")
        hit = key in self._entries
        if hit:
            self.stats.hits += 1
            self._used -= self._entries.pop(key)
        else:
            self.stats.misses += 1
        self._evict_until(size)
        self._entries[key] = size
        self._used += size
        return hit

    def _evict_until(self, incoming: int) -> None:
        while self._used + incoming > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
            self.stats.evictions += 1

    def evict(self, key: Hashable) -> int:
        """Explicitly drop an entry, returning its size."""
        if key not in self._entries:
            raise ConfigError(f"key {key!r} not cached")
        size = self._entries.pop(key)
        self._used -= size
        self.stats.evictions += 1
        return size

    def keys_lru_order(self) -> tuple[Hashable, ...]:
        """Keys from least to most recently used."""
        return tuple(self._entries)
