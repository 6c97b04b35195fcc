"""Naive hybrid baseline (§3 "our initial attempt", ablated in §6.3.1).

Splits the history *tokens* into two shards restored concurrently: one via
token recomputation (compute) and one via KV offload (IO).  Unlike HCache
it keeps the forward pass and the KV cache as-is, so neither the compute
nor the IO volume shrinks — it merely parallelizes the two baselines.  The
optimizer below balances the shard sizes so both finish together, which is
the strongest version of this idea (bubble-free but without hidden states).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import RestorationMethod
from repro.core.profiler import build_storage_array
from repro.core.restoration import RestorationTiming
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.costs import prefill_time
from repro.simulator.hardware import Platform
from repro.storage.chunk import CHUNK_TOKENS

#: Token granularity of the shard-size search.
SEARCH_STEP = 16


@dataclass(frozen=True)
class HybridSplit:
    """The chosen token split.

    Attributes:
        recompute_tokens: History tokens rebuilt by prefill.
        offload_tokens: History tokens fetched as KV cache.
    """

    recompute_tokens: int
    offload_tokens: int


class NaiveHybridMethod(RestorationMethod):
    """Balanced concurrent recompute + KV offload over token shards."""

    name = "naive-hybrid"

    def __init__(self, config: ModelConfig, platform: Platform) -> None:
        super().__init__(config, platform)
        self._array = build_storage_array(platform)

    def _offload_io(self, n_tokens: int) -> float:
        if n_tokens == 0:
            return 0.0
        chunk_bytes = CHUNK_TOKENS * self.config.kv_bytes_per_token_layer
        layer_bytes = n_tokens * self.config.kv_bytes_per_token_layer
        return self._array.read_time(layer_bytes, chunk_bytes) * self.config.n_layers

    def best_split(self, n_tokens: int) -> HybridSplit:
        """Balance the shards so compute and IO finish together."""
        if n_tokens <= 0:
            raise ConfigError("n_tokens must be positive")
        best: tuple[float, HybridSplit] | None = None
        step = min(SEARCH_STEP, n_tokens)
        candidates = set(range(0, n_tokens + 1, step)) | {n_tokens}
        for n_rec in sorted(candidates):
            split = HybridSplit(n_rec, n_tokens - n_rec)
            makespan = max(
                prefill_time(self.config, self.platform, split.recompute_tokens),
                self._offload_io(split.offload_tokens),
            )
            if best is None or makespan < best[0] - 1e-12:
                best = (makespan, split)
        assert best is not None
        return best[1]

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        split = self.best_split(n_tokens)
        compute = prefill_time(self.config, self.platform, split.recompute_tokens)
        io = self._offload_io(split.offload_tokens)
        makespan = max(compute, io)
        return RestorationTiming(
            n_tokens=n_tokens,
            makespan=makespan,
            io_busy=io,
            compute_busy=compute,
            io_bubble=makespan - io,
            compute_bubble=makespan - compute,
        )

    def storage_bytes_per_token(self) -> int:
        """The offloaded shard stores full KV; the recomputed shard nothing.

        Reported for the *average* token assuming the balanced split at a
        1K-token reference history.
        """
        split = self.best_split(1024)
        frac = split.offload_tokens / 1024
        return int(self.config.kv_bytes_per_token * frac)
