"""GPU-resident KV reuse in front of state restoration (§6.4, Fig. 15).

Real serving systems keep hot contexts' KV on the GPU (SGLang, Prompt
Cache); restoration only runs on a miss.  This module replays a stream of
context references through an LRU over the GPU's KV budget and charges
each request either a prefill-only TTFT (hit) or restoration + prefill
(miss), reproducing how rising skew shrinks — but does not eliminate —
HCache's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import LRUCache
from repro.core.restoration import ttft
from repro.engine.batching import MemoryBudget
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform
from repro.traces.leval import LEvalRequest
from repro.traces.zipf import ZipfianSampler


@dataclass(frozen=True)
class CachedServingResult:
    """Outcome of one cached-serving replay.

    Attributes:
        method: Restoration method name.
        alpha: Zipf skew (``None`` = uniform).
        hit_ratio: LRU hit ratio over the replay.
        mean_ttft: Mean TTFT across requests (seconds).
        n_requests: Requests replayed.
    """

    method: str
    alpha: float | None
    hit_ratio: float
    mean_ttft: float
    n_requests: int


class GPUCacheSimulator:
    """LRU-fronted restoration over a pool of reusable contexts."""

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        capacity_tokens: int | None = None,
    ) -> None:
        self.config = config
        self.platform = platform
        if capacity_tokens is None:
            capacity_tokens = MemoryBudget.for_platform(config, platform).capacity_tokens
        self.capacity_tokens = capacity_tokens

    def replay(
        self,
        contexts: list[LEvalRequest],
        method: str,
        n_requests: int,
        alpha: float | None,
        seed: int = 0,
    ) -> CachedServingResult:
        """Replay Zipf-distributed references through an LRU cache.

        Each reference targets one context from the pool; hits reuse the
        GPU-resident KV (the ``"ideal"`` TTFT), misses restore it with
        ``method``, one of :data:`~repro.core.restoration.METHODS`, first.
        """
        if not contexts:
            raise ConfigError("context pool is empty")
        sampler = ZipfianSampler(len(contexts), alpha, seed)
        cache = LRUCache(self.capacity_tokens)
        draws = sampler.sample(n_requests)
        total_ttft = 0.0
        for draw in draws:
            ctx = contexts[int(draw)]
            size = ctx.context_tokens + ctx.input_tokens
            served_by = "ideal" if cache.lookup(ctx.context_id, size) else method
            total_ttft += ttft(
                served_by, self.config, self.platform, ctx.context_tokens, ctx.input_tokens
            )
        return CachedServingResult(
            method=method,
            alpha=alpha,
            hit_ratio=cache.stats.hit_ratio,
            mean_ttft=total_ttft / n_requests,
            n_requests=n_requests,
        )
