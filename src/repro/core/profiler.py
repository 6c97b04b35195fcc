"""Offline hardware profiling (§4.1.2).

The bubble-free scheduler needs four per-layer quantities for the target
(model, platform, history length): hidden-state transmission time ``IO_H``,
KV transmission time ``IO_KV``, KV-projection compute time ``C_H``, and
full-layer token-recompute time ``C_token``.  The real system measures them
once per deployment; this reproduction "profiles" the simulated hardware by
evaluating the performance model, charging the chunked-read timing of the
platform's storage array (SSDs or host DRAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.costs import full_layer_flops
from repro.simulator.gemm import kv_projection_time
from repro.simulator.hardware import Platform
from repro.storage.array import StorageArray
from repro.storage.chunk import CHUNK_TOKENS


@dataclass(frozen=True)
class HardwareProfile:
    """Per-layer restoration costs measured for a concrete workload point.

    All times are seconds for one layer covering ``n_tokens`` of history.
    ``compute_token`` is the full transformer-layer forward (attention +
    FFN) used by the recomputation path; ``compute_hidden`` is the K/V
    projection pair used by the HCache path.
    """

    model: str
    n_tokens: int
    io_hidden: float
    io_kv: float
    compute_hidden: float
    compute_token: float

    def __post_init__(self) -> None:
        if min(self.io_hidden, self.io_kv, self.compute_hidden, self.compute_token) < 0:
            raise ConfigError("profiled times must be non-negative")

    @property
    def compute_bound(self) -> bool:
        """True when the projection outweighs the hidden transmission —
        the regime where HCache pairs with KV offload (§4.1.2)."""
        return self.compute_hidden > self.io_hidden

    def describe(self) -> str:
        return (
            f"{self.model}@{self.n_tokens}tok: IO_H={self.io_hidden * 1e6:.1f}us "
            f"IO_KV={self.io_kv * 1e6:.1f}us C_H={self.compute_hidden * 1e6:.1f}us "
            f"C_tok={self.compute_token * 1e6:.1f}us "
            f"({'compute' if self.compute_bound else 'io'}-bound)"
        )


def build_storage_array(platform: Platform) -> StorageArray:
    """Construct the platform's storage array, one device per spec."""
    link = platform.gpu.pcie_bandwidth * platform.n_gpus
    return StorageArray(platform.storage, link_bandwidth=link)


def profile_platform(
    config: ModelConfig,
    platform: Platform,
    n_tokens: int,
    tokens_per_chunk: int = CHUNK_TOKENS,
) -> HardwareProfile:
    """Profile one (model, platform, history-length) point.

    Transmission times account for the chunked layout: a layer is read as
    ``ceil(n_tokens / 64)`` chunk I/Os striped round-robin over the array.
    Compute times use the tile-quantized GEMM model for the projection and
    the prefill-efficiency FLOP model for full-layer recompute.
    """
    if n_tokens <= 0:
        raise ConfigError("profiling needs a positive token count")
    array = build_storage_array(platform)
    n_chunks = math.ceil(n_tokens / tokens_per_chunk)
    hidden_chunk = tokens_per_chunk * config.hidden_bytes_per_token_layer
    kv_chunk = tokens_per_chunk * config.kv_bytes_per_token_layer
    io_hidden = array.layer_read_timing(n_chunks, hidden_chunk).seconds
    io_kv = array.layer_read_timing(n_chunks, kv_chunk).seconds
    compute_hidden = kv_projection_time(
        n_tokens, config.hidden_size, config.kv_size, platform
    ).seconds
    compute_token = full_layer_flops(config, n_tokens) / (
        platform.total_flops * platform.prefill_efficiency
    ) + platform.kernel_overhead
    return HardwareProfile(
        model=config.name,
        n_tokens=n_tokens,
        io_hidden=io_hidden,
        io_kv=io_kv,
        compute_hidden=compute_hidden,
        compute_token=compute_token,
    )
