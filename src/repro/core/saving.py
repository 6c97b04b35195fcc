"""State-saving strategies and their decode-path impact (§4.2.2, Fig. 14).

During generation, each layer's hidden states live in a temporary buffer
that the next layer reuses, so they must leave the GPU before the buffer is
overwritten.  :func:`decode_tbt_with_saving` prices each strategy in
:data:`SAVING_STRATEGIES` by name:

- **ideal**: states are never saved (no stateful reuse).
- **two-stage** (HCache's design): the whole batch's hidden states are
  snapshotted to host DRAM with a single ``cudaMemcpy``; a host daemon
  packs them into chunks and flushes full chunks to the SSDs in the
  background.  The GPU stalls only if the D2H copy outlasts the layer's
  compute or the daemon's staging buffer fills — neither happens at decode
  rates (§6.3.3: ~3 GB/s worst case versus 32 GB/s PCIe).
- **direct-io**: hidden states are written straight to their chunks on the
  SSDs.  With continuous batching, a batch holds tokens from many
  sequences whose chunks live at scattered locations, so each layer issues
  ``batch_size`` small synchronous writes.  These serialize on the
  submission path and stall decoding once they outlast a layer's compute —
  the degradation Fig. 14 shows growing with batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.costs import decode_iteration_time
from repro.simulator.hardware import Platform

#: The saving strategies :func:`decode_tbt_with_saving` prices (Fig. 14).
SAVING_STRATEGIES = ("ideal", "two-stage", "direct-io")

#: Host staging buffer the two-stage flush daemon packs snapshots into.
STAGING_BYTES = 4 * 1024**3


@dataclass(frozen=True)
class DecodeSavingImpact:
    """Modelled TBT with a given saving strategy (one decode iteration).

    Attributes:
        tbt: Time between tokens, including saving stalls.
        base_tbt: TBT with no saving at all (the Fig. 14 "Ideal" line).
        stall: Total per-iteration stall caused by saving.
    """

    tbt: float
    base_tbt: float
    stall: float

    @property
    def overhead_fraction(self) -> float:
        if self.base_tbt <= 0:
            return 0.0
        return (self.tbt - self.base_tbt) / self.base_tbt


def decode_tbt_with_saving(
    config: ModelConfig,
    platform: Platform,
    batch_size: int,
    history_len: int,
    strategy: str,
) -> DecodeSavingImpact:
    """TBT of a decode batch when every layer's hidden states are saved.

    ``history_len`` is each sequence's context length (Fig. 14 uses 512).
    The iteration's compute is spread evenly over layers; each layer then
    pays its saving stall:

    - two-stage: the snapshot overlaps the layer's compute on a copy
      stream, so the layer waits only for the copy time beyond its own.
      The daemon's backlog drains at the storage write bandwidth while
      the layer runs; a snapshot that would overflow
      :data:`STAGING_BYTES` waits until the backlog has drained enough.
    - direct-io: ``batch_size`` serialized small writes overlap the
      layer's compute (double-buffered), so the stall is only their
      excess — zero for small batches, then growing roughly linearly.
    """
    if strategy not in SAVING_STRATEGIES:
        raise ConfigError(
            f"unknown saving strategy {strategy!r}; known: {', '.join(SAVING_STRATEGIES)}"
        )
    if batch_size <= 0:
        raise ConfigError("batch size must be positive")
    base_tbt = decode_iteration_time(
        config, platform, batch_size, context_tokens=batch_size * history_len
    )
    layer_time = base_tbt / config.n_layers
    nbytes = batch_size * config.hidden_bytes_per_token_layer
    copy_time = nbytes / (platform.gpu.pcie_bandwidth * platform.n_gpus)
    device = platform.storage[0]
    write_time = batch_size * device.small_write_time(config.hidden_bytes_per_token_layer)
    flush_bw = platform.storage_write_bandwidth
    total_stall = backlog = 0.0
    for _ in range(config.n_layers):
        if strategy == "two-stage":
            copy_stall = max(0.0, copy_time - layer_time)
            backlog -= min(backlog, (layer_time + copy_stall) * flush_bw)
            overflow_stall = max(0.0, (backlog + nbytes - STAGING_BYTES) / flush_bw)
            backlog -= min(backlog, overflow_stall * flush_bw)
            backlog += nbytes
            total_stall += copy_stall + overflow_stall
        elif strategy == "direct-io":
            total_stall += max(0.0, write_time - layer_time)
    return DecodeSavingImpact(tbt=base_tbt + total_stall, base_tbt=base_tbt, stall=total_stall)
