"""Analytic restoration cost model — the equations of §3.2.

For one transformer layer with MHA over a history of ``N`` tokens and hidden
dimension ``D`` (FP16):

- HCache transmission:      ``IO_hidden = N * D * b / BW``
- HCache recomputation:     ``C_hidden = 4 * N * D^2 / FLOPS``
- KV offload transmission:  ``IO_kv    = 2 * N * D * b / BW``
- Token recomputation:      ``C_token  = (24 * N * D^2 + N^2 * D) / FLOPS``

The pipelined HCache restoration time is ``max(IO_hidden, C_hidden)`` per
layer; KV offload is pure IO; recomputation is pure compute.  The relative
compute saving of HCache over recomputation is ``6 + N / (4 * D)`` — at
least 6x, growing with context length because the quadratic attention term
disappears (§3.2 "Comparison").

These closed forms feed the bubble-free scheduler's offline profile and the
first-order analysis benchmarks (Fig. 1); the two-stream timing in
:mod:`repro.core.restoration` layers chunked IO, GEMM quantization, and
per-layer synchronization on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform


def hidden_bytes(config: ModelConfig, n_tokens: int, n_layers: int | None = None) -> int:
    """Bytes of hidden states for ``n_tokens`` across ``n_layers`` layers."""
    layers = config.n_layers if n_layers is None else n_layers
    return n_tokens * config.hidden_bytes_per_token_layer * layers


def kv_bytes(config: ModelConfig, n_tokens: int, n_layers: int | None = None) -> int:
    """Bytes of KV cache for ``n_tokens`` across ``n_layers`` layers."""
    layers = config.n_layers if n_layers is None else n_layers
    return n_tokens * config.kv_bytes_per_token_layer * layers


def kv_projection_flops(config: ModelConfig, n_tokens: int) -> float:
    """FLOPs to project hidden states into K and V for one layer.

    ``4 * N * D * kv_size`` — the paper's ``4 N D^2`` for MHA.
    """
    return 4.0 * n_tokens * config.hidden_size * config.kv_size


def attention_flops(config: ModelConfig, n_tokens: int) -> float:
    """FLOPs of one layer's attention module over ``n_tokens`` (prefill).

    ``8 N D^2`` for the Q/K/V/Out projections plus the paper's quadratic
    ``N^2 D`` score/weighted-average term.
    """
    d = config.hidden_size
    proj = 4.0 * 2.0 * n_tokens * d * d
    quad = float(n_tokens) * n_tokens * d
    return proj + quad


def ffn_flops(config: ModelConfig, n_tokens: int) -> float:
    """FLOPs of one layer's FFN over ``n_tokens``.

    ``2 * n_mats * N * D * D_ffn`` — equal to the paper's ``16 N D^2`` when
    ``D_ffn = 4 D`` with two matrices (OPT) and nearly identical for
    Llama2's three-matrix SwiGLU.
    """
    return 2.0 * config.n_ffn_mats * n_tokens * config.hidden_size * config.ffn_hidden_size


def full_layer_flops(config: ModelConfig, n_tokens: int) -> float:
    """FLOPs of one full transformer layer over ``n_tokens``."""
    return attention_flops(config, n_tokens) + ffn_flops(config, n_tokens)


@dataclass(frozen=True)
class RestorationEstimate:
    """First-order full-model restoration estimates (no pipelining detail).

    All times in seconds; these reproduce the paper's Fig. 1 resource
    comparison and bound the two-stream results.
    """

    n_tokens: int
    hcache: float
    kv_offload: float
    recompute: float

    @property
    def speedup_vs_offload(self) -> float:
        return self.kv_offload / self.hcache

    @property
    def speedup_vs_recompute(self) -> float:
        return self.recompute / self.hcache


def estimate_restoration(
    config: ModelConfig, platform: Platform, n_tokens: int
) -> RestorationEstimate:
    """Closed-form restoration time for all three methods (full model).

    HCache is the per-layer max of IO and compute (perfect pipeline), KV
    offload is pure transmission, recomputation is a full prefill's compute.
    """
    if n_tokens <= 0:
        raise ConfigError("n_tokens must be positive")
    bw = platform.storage_read_bandwidth
    io_hidden = hidden_bytes(config, n_tokens, 1) / bw
    io_kv = kv_bytes(config, n_tokens, 1) / bw
    compute_hidden = kv_projection_flops(config, n_tokens) / (
        platform.total_flops * platform.gemm_eff
    )
    compute_token = full_layer_flops(config, n_tokens) / (
        platform.total_flops * platform.prefill_efficiency
    )
    n = config.n_layers
    return RestorationEstimate(
        n_tokens=n_tokens,
        hcache=n * max(io_hidden, compute_hidden),
        kv_offload=n * io_kv,
        recompute=n * compute_token,
    )


def theoretical_compute_speedup(config: ModelConfig, n_tokens: int) -> float:
    """The paper's ``6 + N / (4 D)`` compute-saving ratio (§3.2).

    Computed from the actual FLOP counts rather than the simplified
    constants so architectures with ``D_ffn != 4 D`` report their true
    ratio; for OPT-style models it equals the formula exactly.
    """
    return full_layer_flops(config, n_tokens) / kv_projection_flops(config, n_tokens)


def prefill_time(config: ModelConfig, platform: Platform, n_tokens: int) -> float:
    """Time of a full prefill forward pass over ``n_tokens``.

    Includes the LM-head projection and per-layer kernel overheads; used
    both for the recomputation baseline and the new-prompt prefill that
    every method performs after restoration.
    """
    if n_tokens <= 0:
        return 0.0
    flops = config.n_layers * full_layer_flops(config, n_tokens)
    flops += 2.0 * n_tokens * config.hidden_size * config.vocab_size
    compute = flops / (platform.total_flops * platform.prefill_efficiency)
    return compute + config.n_layers * platform.kernel_overhead


def decode_iteration_time(
    config: ModelConfig,
    platform: Platform,
    batch_size: int,
    context_tokens: int,
) -> float:
    """Time of one decode iteration for a batch.

    Decoding is bandwidth-bound: every layer's weights are read once per
    iteration and each sequence streams its KV cache through the attention
    kernel.  ``context_tokens`` is the total context length across the
    batch (sum over sequences); an empty batch costs nothing.
    """
    if batch_size < 0 or context_tokens < 0:
        raise ConfigError("batch size and context must be non-negative")
    if batch_size == 0:
        return 0.0
    hbm = platform.total_hbm_bandwidth
    weight_read = config.weight_bytes / hbm
    kv_read = context_tokens * config.kv_bytes_per_token_layer * config.n_layers / hbm
    compute = 2.0 * batch_size * config.param_count / (
        platform.total_flops * platform.gemm_eff
    )
    overhead = config.n_layers * platform.kernel_overhead
    return max(weight_read + kv_read, compute) + overhead
