"""Context reuse layers: GPU-resident KV (LRU, §6.4) and DRAM prefetching
in front of HCache restoration (§4 extension)."""

from repro.cache.gpu_cache import CachedServingResult, GPUCacheSimulator
from repro.cache.lru import CacheStats, LRUCache
from repro.cache.prefetch import PrefetchingHCache, WarmRestoration

__all__ = [
    "CacheStats",
    "CachedServingResult",
    "GPUCacheSimulator",
    "LRUCache",
    "PrefetchingHCache",
    "WarmRestoration",
]
