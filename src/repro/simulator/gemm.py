"""GEMM timing model with tile quantization.

§4.1.1 of the paper observes that cuBLAS GEMM execution time does not vary
proportionally with the number of tokens: kernels are tiled in the token
(``m``) dimension, so a GEMM over 794 tokens costs about the same as one over
the next tile boundary (the paper rounds to 768/832-style "optimized sizes").
Figure 13b plots this step curve for the 13B K/V restoration GEMM.

This module models that effect: the token dimension is rounded up to a tile
multiple, and the model-FLOPS-utilization (MFU) ramps from a small-batch
floor towards the platform's large-GEMM efficiency with a saturating curve.
The resulting times land in the window implied by Fig. 13b (a 1024-token
K/V projection for the 13B model on an A100 takes roughly 300-400 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simulator.hardware import Platform

#: cuBLAS-style tile size in the token dimension.  The paper's "optimized
#: sizes" (e.g. 768) are multiples of this.
DEFAULT_TILE = 128

#: Token count at which the MFU ramp reaches half of its range.
_MFU_HALF_TOKENS = 32

#: MFU floor for a single-token GEMM (launch-bound).
_MFU_FLOOR = 0.05


def round_up_tokens(n_tokens: int, tile: int = DEFAULT_TILE) -> int:
    """Round a token count up to the next GEMM tile boundary.

    This is the "round-up optimization" evaluated in Fig. 13a: issuing a
    GEMM at the tile boundary wastes the padding rows but runs at the
    optimized kernel's speed.
    """
    if n_tokens < 0:
        raise ConfigError("token count must be non-negative")
    if n_tokens == 0:
        return 0
    return int(math.ceil(n_tokens / tile)) * tile


def gemm_mfu(n_tokens: int, platform: Platform) -> float:
    """MFU achieved by a GEMM with ``n_tokens`` rows.

    Saturates towards ``platform.gemm_eff`` as the token dimension
    grows; tiny GEMMs are launch-latency bound and achieve only a small
    fraction of peak.
    """
    if n_tokens <= 0:
        return _MFU_FLOOR
    ceiling = platform.gemm_eff
    ramp = n_tokens / (n_tokens + _MFU_HALF_TOKENS)
    return _MFU_FLOOR + (ceiling - _MFU_FLOOR) * ramp


@dataclass(frozen=True)
class GemmTiming:
    """Breakdown of one GEMM invocation's modelled execution.

    Attributes:
        n_tokens: Requested row count.
        padded_tokens: Row count after tile quantization.
        flops: FLOPs actually executed (padded).
        mfu: Model-FLOPS-utilization applied.
        seconds: Wall-clock execution time.
    """

    n_tokens: int
    padded_tokens: int
    flops: float
    mfu: float
    seconds: float


def kv_projection_time(
    n_tokens: int,
    hidden_size: int,
    kv_size: int,
    platform: Platform,
    tile: int = DEFAULT_TILE,
) -> GemmTiming:
    """Time to project hidden states into K and V for one layer.

    This is HCache's restoration compute: two GEMMs of shape
    ``(n x D) @ (D x kv)``, i.e. ``4 * n * D * kv`` FLOPs for MHA where
    ``kv == D`` — the paper's ``C_hidden`` term.
    """
    padded = round_up_tokens(n_tokens, tile)
    flops = 4.0 * padded * hidden_size * kv_size
    mfu = gemm_mfu(padded, platform)
    seconds = 2 * platform.kernel_overhead + flops / (platform.total_flops * mfu)
    return GemmTiming(n_tokens, padded, flops, mfu, seconds)


def optimal_batch_tokens(max_tokens: int, tile: int = DEFAULT_TILE) -> int:
    """Largest tile-aligned token count not exceeding ``max_tokens``.

    §4.1.1: serving engines cap the mini-batch at a fixed length; HCache
    sets that length to an optimized cuBLAS size.
    """
    if max_tokens < tile:
        return max_tokens
    return (max_tokens // tile) * tile
