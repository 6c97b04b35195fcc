"""Multi-GPU restoration timing (§5, "Multi-GPU support").

With tensor parallelism every GPU needs the full hidden states to compute
its KV shard.  HCache lets all GPUs read *disjoint token shards*
concurrently — aggregating read bandwidth with no amplification — then
runs an all-gather over NVLink to reassemble the full hidden states.  With
pipeline parallelism each GPU independently restores its own layers, so
restoration scales embarrassingly.

This module prices both patterns on top of the single-GPU pipeline model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import InterconnectSpec, Platform

#: Per-GPU NVLink bandwidth used for the all-gather (A100 SXM4: 600 GB/s
#: total; ring all-gather moves (n-1)/n of the data at link speed).
#: Kept as the ``allgather_time`` default so existing callers (and tests
#: that monkeypatch these) are unaffected; platform-aware callers pass
#: ``platform.interconnect`` instead.
NVLINK_BANDWIDTH = 600e9

#: Fixed latency of launching one collective.
ALLGATHER_LATENCY = 20e-6


@dataclass(frozen=True)
class MultiGPURestoration:
    """Timing of a tensor-parallel restoration.

    Attributes:
        read_seconds: Sharded hidden-state read (aggregated bandwidth).
        allgather_seconds: Reassembly collective per layer batch.
        compute_seconds: Per-GPU KV projection over the full token run
            (each GPU projects its own head shard: full tokens, 1/n of
            the output channels).
        makespan: Pipelined total.
    """

    read_seconds: float
    allgather_seconds: float
    compute_seconds: float
    makespan: float


def allgather_time(
    nbytes: int, n_gpus: int, interconnect: InterconnectSpec | None = None
) -> float:
    """Ring all-gather time for ``nbytes`` of gathered payload.

    ``interconnect`` prices the link; ``None`` falls back to the module
    constants (the historical behaviour — and what the existing tests
    monkeypatch).
    """
    if n_gpus < 1:
        raise ConfigError("n_gpus must be >= 1")
    if n_gpus == 1:
        return 0.0
    moved = nbytes * (n_gpus - 1) / n_gpus
    if interconnect is None:
        return ALLGATHER_LATENCY + moved / NVLINK_BANDWIDTH
    return interconnect.collective_latency + moved / interconnect.bandwidth


def tensor_parallel_restoration(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> MultiGPURestoration:
    """Price a tensor-parallel HCache restoration (§5).

    Reads shard by token across GPUs (aggregate PCIe/storage bandwidth —
    already reflected in ``platform.storage_read_bandwidth``); each layer
    then all-gathers its hidden states before the per-GPU projections.
    The collective is tiny next to the transmission ("only a small
    overhead compared with the transmission part"), which this model
    makes quantitative.
    """
    if n_tokens <= 0:
        raise ConfigError("n_tokens must be positive")
    layer_bytes = n_tokens * config.hidden_bytes_per_token_layer
    read = config.n_layers * layer_bytes / platform.storage_read_bandwidth
    gather = config.n_layers * allgather_time(
        layer_bytes, platform.n_gpus, platform.interconnect
    )
    # Each GPU projects the full token run into its head shard: the work
    # divides across GPUs exactly like the aggregate-FLOPS model assumes.
    from repro.simulator.gemm import kv_projection_time

    compute = (
        config.n_layers
        * kv_projection_time(n_tokens, config.hidden_size, config.kv_size, platform).seconds
    )
    makespan = max(read + gather, compute + gather)
    return MultiGPURestoration(
        read_seconds=read,
        allgather_seconds=gather,
        compute_seconds=compute,
        makespan=makespan,
    )


def pipeline_parallel_restoration(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> float:
    """Price a pipeline-parallel restoration: each GPU restores its own
    ``n_layers / n_gpus`` layers independently and concurrently (§5)."""
    if platform.n_gpus < 1:
        raise ConfigError("platform needs at least one GPU")
    per_gpu = replace(platform, n_gpus=1)
    layers_per_gpu = -(-config.n_layers // platform.n_gpus)  # ceil
    layer_bytes = n_tokens * config.hidden_bytes_per_token_layer
    read = layers_per_gpu * layer_bytes / per_gpu.storage_read_bandwidth
    from repro.simulator.gemm import kv_projection_time

    compute = layers_per_gpu * kv_projection_time(
        n_tokens, config.hidden_size, config.kv_size, per_gpu
    ).seconds
    return max(read, compute)
