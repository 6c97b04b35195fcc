"""Restoration timing: one IO stream and one compute stream (§4.1).

A restore runs on two resources: the IO stream moves stored state to the
GPU, and the compute stream projects hidden states into K/V or replays
token-recomputed layers (Fig. 5/8).  :func:`two_stream_timing` walks a
partition scheme over the two streams under a hardware profile:

- the recompute prefix runs first on the compute stream (it starts from
  the embedding, §4.1.2);
- the hidden-state reads run back to back on the IO stream from time
  zero, so they prefetch under the prefix;
- each projection starts once its own read has landed and the compute
  stream is free;
- the KV reads follow the hidden reads, filling the IO time left while
  the projections drain (Fig. 8d).

A stream's bubble is its idle time between its first start and the end
of the restore.  The walk yields what the paper reports: makespan,
restoration speed (restored tokens per second, the y-axis of Fig.
11-13) and each stream's busy and bubble time.

:func:`method_timing` prices each of the paper's restoration methods
(§6) by name.  KV offload, HCache-O and HCache are partition schemes
walked by :func:`two_stream_timing`; token recomputation is one full
prefill, the naive hybrid a balanced token split, and ideal costs
nothing.  :func:`ttft` adds the per-request overhead and the new
prompt's prefill (Fig. 4 / Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.partition import PartitionScheme, TokenPartition
from repro.core.profiler import HardwareProfile, build_storage_array, profile_platform
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.costs import full_layer_flops, kv_projection_flops, prefill_time
from repro.simulator.gemm import kv_projection_time, round_up_tokens
from repro.simulator.hardware import Platform
from repro.storage.chunk import CHUNK_TOKENS


@dataclass(frozen=True)
class RestorationTiming:
    """A fully evaluated restoration of one context.

    Attributes:
        n_tokens: History tokens restored.
        makespan: End-to-end restoration wall-clock time (seconds).
        io_busy: Total IO-stream work.
        compute_busy: Total compute-stream work.
        io_bubble: IO-stream idle time within the restoration window.
        compute_bubble: Compute-stream idle time.
    """

    n_tokens: int
    makespan: float
    io_busy: float
    compute_busy: float
    io_bubble: float
    compute_bubble: float

    @property
    def restoration_speed(self) -> float:
        """Restored tokens per second — the paper's recovery-speed metric."""
        if self.makespan <= 0:
            return float("inf")
        return self.n_tokens / self.makespan


def two_stream_timing(scheme: PartitionScheme, profile: HardwareProfile) -> RestorationTiming:
    """Time ``scheme``'s restoration of ``profile.n_tokens`` history tokens.

    The *last* layer of a recompute prefix costs a projection, not a
    full-layer forward: its K/V need only its input rows (the previous
    layer's output — for layer 0 the embedding gather), never its own
    attention or FFN, which is how :meth:`HCacheEngine.restore` runs it.
    """
    n_recompute = scheme.n_recompute
    prefix = (
        [profile.compute_token] * (n_recompute - 1) + [profile.compute_hidden]
        if n_recompute
        else []
    )
    io_work = [profile.io_hidden] * scheme.n_hidden + [profile.io_kv] * scheme.n_kv
    compute_work = prefix + [profile.compute_hidden] * scheme.n_hidden

    io_end = compute_end = 0.0
    for seconds in prefix:
        compute_end += seconds
    for _ in range(scheme.n_hidden):
        io_end += profile.io_hidden
        compute_end = max(compute_end, io_end) + profile.compute_hidden
    for _ in range(scheme.n_kv):
        io_end += profile.io_kv

    makespan = max(io_end, compute_end)
    io_busy, compute_busy = sum(io_work, 0.0), sum(compute_work, 0.0)
    # The IO stream starts at zero; the compute stream starts with the
    # prefix or, without one, when the first hidden read lands.
    compute_start = 0.0 if prefix else profile.io_hidden
    return RestorationTiming(
        n_tokens=profile.n_tokens,
        makespan=makespan,
        io_busy=io_busy,
        compute_busy=compute_busy,
        io_bubble=makespan - io_busy if io_work else 0.0,
        compute_bubble=(makespan - compute_start) - compute_busy if compute_work else 0.0,
    )


def scheme_timing(
    config: ModelConfig,
    platform: Platform,
    n_tokens: int,
    scheme: PartitionScheme,
) -> RestorationTiming:
    """Evaluate a given partition scheme's restoration on a platform."""
    if scheme.n_layers != config.n_layers:
        raise ConfigError("scheme layer count mismatches the model")
    return two_stream_timing(scheme, profile_platform(config, platform, n_tokens))


def tokenwise_timing(
    config: ModelConfig,
    platform: Platform,
    partition: TokenPartition,
    round_up: bool = False,
) -> RestorationTiming:
    """Evaluate a token-wise partition (Fig. 13 ablation).

    Every layer restores the hidden shard by transmission + projection and
    the complementary shard by token recomputation (the paper's Fig. 13
    configuration: "794 tokens via hidden states, 230 via token
    recomputation").  With ``round_up`` the hidden shard is issued at the
    next tile boundary (the "Token-Wise + Round" variant); without it, the
    irregular GEMM pays the tile padding implicitly — the cuBLAS effect
    the paper measured.

    Each layer's read carries the hidden shard and its compute carries
    the shard's projection plus the recompute, so the restore walks the
    two streams exactly as an all-hidden layer-wise scheme with those
    per-layer costs does (Fig. 8c).
    """
    n_h, n_o = partition.n_hidden_tokens, partition.n_other_tokens
    if partition.total_tokens == 0:
        raise ConfigError("token partition covers no tokens")
    array = build_storage_array(platform)
    hidden_nbytes = n_h * config.hidden_bytes_per_token_layer
    chunk_bytes = CHUNK_TOKENS * config.hidden_bytes_per_token_layer
    io_time = 0.0
    if hidden_nbytes:
        io_time += array.read_time(hidden_nbytes, chunk_bytes)
    compute_time = 0.0
    if n_h:
        projected = round_up_tokens(n_h) if round_up else n_h
        compute_time += kv_projection_time(
            projected, config.hidden_size, config.kv_size, platform
        ).seconds
    if n_o:
        compute_time += full_layer_flops(config, n_o) / (
            platform.total_flops * platform.prefill_efficiency
        )
    per_layer = HardwareProfile(
        model=config.name,
        n_tokens=partition.total_tokens,
        io_hidden=io_time,
        io_kv=0.0,
        compute_hidden=compute_time,
        compute_token=0.0,
    )
    return two_stream_timing(PartitionScheme.pure_hcache(config.n_layers), per_layer)


def naive_tokenwise_split(
    config: ModelConfig, platform: Platform, n_tokens: int, step: int = 2
) -> TokenPartition:
    """The split a token-wise scheduler would choose *without* knowing
    about GEMM tile quantization (§4.1.1's failure mode).

    Balances per-layer hidden transmission against projection-plus-
    recompute using the smooth closed-form costs; the resulting irregular
    token count (e.g. the paper's 794) then pays the padded-kernel price
    when actually executed.
    """
    if n_tokens <= 0:
        raise ConfigError("n_tokens must be positive")
    array = build_storage_array(platform)
    chunk_bytes = CHUNK_TOKENS * config.hidden_bytes_per_token_layer
    best_n, best_cost = 0, float("inf")
    for n_h in range(0, n_tokens + 1, max(1, step)):
        io = (
            array.read_time(n_h * config.hidden_bytes_per_token_layer, chunk_bytes)
            if n_h
            else 0.0
        )
        compute = kv_projection_flops(config, n_h) / (
            platform.total_flops * platform.gemm_eff
        )
        compute += full_layer_flops(config, n_tokens - n_h) / (
            platform.total_flops * platform.prefill_efficiency
        )
        cost = max(io, compute)
        if cost < best_cost - 1e-15:
            best_n, best_cost = n_h, cost
    return TokenPartition(best_n, n_tokens - best_n)


#: The paper's restoration methods (§6): HCache and every comparator.
METHODS = ("recompute", "kv-offload", "naive-hybrid", "hcache-o", "hcache", "ideal")

#: The comparison set of the serving and TTFT figures (Fig. 4, 9, 10).
DEFAULT_METHODS = ("recompute", "kv-offload", "hcache", "ideal")

#: Token granularity of the naive hybrid's shard-size search.
HYBRID_SEARCH_STEP = 16


def _recompute_timing(config: ModelConfig, platform: Platform, n_tokens: int) -> RestorationTiming:
    """DeepSpeed-MII's token recomputation: one full prefill of the history."""
    compute = prefill_time(config, platform, n_tokens)
    return RestorationTiming(
        n_tokens=n_tokens,
        makespan=compute,
        io_busy=0.0,
        compute_busy=compute,
        io_bubble=0.0,
        compute_bubble=0.0,
    )


def _ideal_timing(config: ModelConfig, platform: Platform, n_tokens: int) -> RestorationTiming:
    """The paper's "Ideal": the KV is already on the GPU, nothing to restore."""
    return RestorationTiming(
        n_tokens=n_tokens,
        makespan=0.0,
        io_busy=0.0,
        compute_busy=0.0,
        io_bubble=0.0,
        compute_bubble=0.0,
    )


def _kv_offload_timing(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> RestorationTiming:
    """AttentionStore's KV offload: every layer's K/V read back."""
    return scheme_timing(config, platform, n_tokens, PartitionScheme.pure_kv(config.n_layers))


def _hcache_only_timing(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> RestorationTiming:
    """HCache-O (§6.3.1): every layer from hidden states, no scheduler."""
    return scheme_timing(
        config, platform, n_tokens, PartitionScheme.pure_hcache(config.n_layers)
    )


def _hcache_timing(config: ModelConfig, platform: Platform, n_tokens: int) -> RestorationTiming:
    """HCache: the scheme the bubble-free scheduler picks for this length."""
    # The scheduler prices its candidates with this module's walk, so it
    # is imported on first use rather than at module load.
    from repro.core.scheduler import hcache_timing

    return hcache_timing(config, platform, n_tokens)[0]


def _naive_hybrid_timing(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> RestorationTiming:
    """§3's "initial attempt", ablated in §6.3.1.

    The history *tokens* split into a shard rebuilt by prefill (compute)
    and a shard read back as KV (IO), restored side by side.  Neither
    volume shrinks; the shard sizes are balanced so both streams finish
    together, the strongest form of the idea.
    """
    if n_tokens <= 0:
        raise ConfigError("n_tokens must be positive")
    step = min(HYBRID_SEARCH_STEP, n_tokens)
    best: RestorationTiming | None = None
    for n_recompute in sorted(set(range(0, n_tokens + 1, step)) | {n_tokens}):
        n_offload = n_tokens - n_recompute
        compute = prefill_time(config, platform, n_recompute)
        io = _kv_offload_timing(config, platform, n_offload).makespan if n_offload else 0.0
        makespan = max(compute, io)
        if best is None or makespan < best.makespan - 1e-12:
            best = RestorationTiming(
                n_tokens=n_tokens,
                makespan=makespan,
                io_busy=io,
                compute_busy=compute,
                io_bubble=makespan - io,
                compute_bubble=makespan - compute,
            )
    assert best is not None
    return best


_TIMINGS: dict[str, Callable[[ModelConfig, Platform, int], RestorationTiming]] = {
    "recompute": _recompute_timing,
    "kv-offload": _kv_offload_timing,
    "naive-hybrid": _naive_hybrid_timing,
    "hcache-o": _hcache_only_timing,
    "hcache": _hcache_timing,
    "ideal": _ideal_timing,
}


def _timing_for(name: str) -> Callable[[ModelConfig, Platform, int], RestorationTiming]:
    if name not in _TIMINGS:
        raise ConfigError(f"unknown restoration method {name!r}; known: {', '.join(METHODS)}")
    return _TIMINGS[name]


def method_timing(
    name: str, config: ModelConfig, platform: Platform, n_tokens: int
) -> RestorationTiming:
    """Restoration of ``n_tokens`` of evicted history by method ``name``.

    ``name`` is one of :data:`METHODS`.
    """
    return _timing_for(name)(config, platform, n_tokens)


def ttft(
    name: str, config: ModelConfig, platform: Platform, n_history: int, n_new: int
) -> float:
    """Batch-1 TTFT of method ``name``: the per-request overhead, the
    restoration of ``n_history`` tokens, then the ``n_new``-token prefill.

    The paper defines TTFT as the duration of the restoration and prefill
    phases (§6, Metrics).  Token recomputation folds the history and the
    new prompt into one prefill, cheaper than two passes thanks to
    batched attention.
    """
    timing = _timing_for(name)
    if n_new < 0 or n_history < 0:
        raise ConfigError("token counts must be non-negative")
    overhead = platform.request_overhead
    if name == "recompute":
        return overhead + prefill_time(config, platform, n_history + n_new)
    restore = timing(config, platform, n_history).makespan if n_history else 0.0
    return overhead + restore + prefill_time(config, platform, n_new)
