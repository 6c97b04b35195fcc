"""Prefetching HCache: DRAM-warm restoration for predictable reuse.

§4 of the paper notes that AttentionStore-style hierarchical backends with
"prefetching and caching strategies, allowing frequently accessed
contextual states to reside in the host DRAM" are orthogonal to HCache and
can be incorporated.  This module incorporates them: after a conversation
round ends, the session's hidden states are prefetched from the SSD array
into a bounded DRAM tier (the 30-second round interval of §6.1.1 leaves
ample time); the next round's restoration then streams at host-link speed
instead of SSD speed, and the bubble-free scheduler re-balances the
partition for the faster IO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiler import HardwareProfile, build_storage_array, profile_platform
from repro.core.restoration import RestorationTiming, scheme_timing
from repro.core.scheduler import BubbleFreeScheduler
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform
from repro.storage.streaming import pipelined_makespan
from repro.storage.tiered import TieredBackend


@dataclass(frozen=True)
class WarmRestoration:
    """One restoration outcome under the prefetching backend.

    Attributes:
        timing: The pipelined restoration timing (layer granularity).
        tier: ``"dram"`` (prefetch hit) or ``"ssd"`` (cold).
        scheme: Partition the scheduler chose for this tier's IO speed.
        chunk_pipelined_s: Makespan of the same restoration at chunk
            granularity — per-chunk reads from the tiered backend
            overlapped with per-chunk projection compute through
            :func:`repro.storage.streaming.pipelined_makespan`, so
            DRAM-warm and SSD reads are costed by identical code.
    """

    timing: RestorationTiming
    tier: str
    scheme_description: str
    chunk_pipelined_s: float = 0.0


class PrefetchingHCache:
    """HCache restoration in front of a DRAM-over-SSD tier."""

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        dram_capacity_bytes: int = 64 * 1024**3,
        io_parallelism: int = 1,
    ) -> None:
        """``io_parallelism`` is forwarded to the :class:`TieredBackend`:
        it models the shared restore IO worker pool keeping that many
        chunk reads in flight on the SSD tier, which amortizes per-IO
        latency in the warm/cold timing this class reports."""
        self.config = config
        self.platform = platform
        self.backend = TieredBackend(
            build_storage_array(platform),
            dram_capacity_bytes=dram_capacity_bytes,
            link_bandwidth=platform.gpu.pcie_bandwidth * platform.n_gpus,
            io_parallelism=io_parallelism,
        )
        self._scheduler = BubbleFreeScheduler(config.n_layers)

    def _context_bytes(self, n_tokens: int) -> int:
        # Prefetch moves the scheduler-stored state; approximate with the
        # pure hidden-state footprint (the dominant component).
        return n_tokens * self.config.hidden_bytes_per_token_layer * self.config.n_layers

    def finish_round(self, context_id: str, n_tokens: int) -> float:
        """Called when a round ends: warm the context for its next round.

        Returns the background SSD-to-DRAM copy time, which must fit in
        the think-time gap (30 s in the paper's workload) to be free.
        """
        if n_tokens <= 0:
            raise ConfigError("n_tokens must be positive")
        return self.backend.prefetch(context_id, self._context_bytes(n_tokens))

    def _profile_for_tier(self, n_tokens: int, tier: str) -> HardwareProfile:
        base = profile_platform(self.config, self.platform, n_tokens)
        if tier == "ssd":
            return base
        bw = min(self.backend.link_bandwidth, self.backend.dram.bandwidth)
        hidden_layer_bytes = n_tokens * self.config.hidden_bytes_per_token_layer
        return HardwareProfile(
            model=base.model,
            n_tokens=n_tokens,
            io_hidden=hidden_layer_bytes / bw,
            io_kv=2 * hidden_layer_bytes / bw,
            compute_hidden=base.compute_hidden,
            compute_token=base.compute_token,
        )

    def restore(self, context_id: str, n_tokens: int) -> WarmRestoration:
        """Restore a context, at DRAM speed when the prefetch landed."""
        if n_tokens <= 0:
            raise ConfigError("n_tokens must be positive")
        read = self.backend.read_streamed(
            context_id,
            self._context_bytes(n_tokens),
            chunk_bytes=64 * self.config.hidden_bytes_per_token_layer,
        )
        profile = self._profile_for_tier(n_tokens, read.tier)
        decision = self._scheduler.schedule(profile)
        timing = scheme_timing(
            self.config, self.platform, n_tokens, decision.scheme, profile=profile
        )
        return WarmRestoration(
            timing=timing,
            tier=read.tier,
            scheme_description=decision.scheme.describe(),
            chunk_pipelined_s=self._chunk_pipeline_s(read.chunk_seconds, profile, decision),
        )

    def _chunk_pipeline_s(
        self,
        chunk_seconds: tuple[float, ...],
        profile: HardwareProfile,
        decision,
    ) -> float:
        """Chunk-granular restoration makespan for this tier.

        Streams the scheme's *actually stored* bytes chunk by chunk and
        overlaps each chunk's share of the hidden-layer projection with
        the remaining transfer (a modelled two-stream timeline; the
        numeric engine's restore measures wall time and models none).
        The backend's per-chunk times cover the all-hidden footprint
        (:meth:`_context_bytes`), so they are rescaled to the partition's
        stored bytes — hidden layers move ``D`` per token, KV layers
        ``2D``, recompute layers nothing — keeping this figure consistent
        with the layer-granular ``timing`` beside it.  A recompute prefix
        contributes a leading compute item that needs no stored bytes, so
        it overlaps the stream from the first read.
        """
        scheme = decision.scheme
        n_chunks = len(chunk_seconds)
        stored_ratio = (scheme.n_hidden + 2 * scheme.n_kv) / self.config.n_layers
        projection_total = profile.compute_hidden * scheme.n_hidden
        per_chunk = projection_total / n_chunks if n_chunks else 0.0
        recompute_total = scheme.n_recompute * profile.compute_token
        io_times = [0.0] + [s * stored_ratio for s in chunk_seconds]
        compute_times = [recompute_total] + [per_chunk] * n_chunks
        return pipelined_makespan(io_times, compute_times)

    @property
    def dram_hit_ratio(self) -> float:
        return self.backend.dram_hit_ratio
