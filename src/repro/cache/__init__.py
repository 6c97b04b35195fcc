"""Context reuse: GPU-resident KV under an LRU and the Fig. 15 replay
(§6.4)."""

from repro.cache.gpu_cache import CachedServingResult, GPUCacheSimulator
from repro.cache.lru import CacheStats, LRUCache

__all__ = [
    "CacheStats",
    "CachedServingResult",
    "GPUCacheSimulator",
    "LRUCache",
]
