"""Numerically stable tensor primitives for the numpy transformer.

All functions are pure and operate on ``float32`` arrays (the reproduction's
stand-in for the serving system's FP16: float32 keeps the lossless-restore
property easy to assert exactly while preserving every structural detail).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigError

#: A dense product ``(x, w) -> x @ w``: plain ``@`` or :func:`slab_matmul`.
MatMul = Callable[[np.ndarray, np.ndarray], np.ndarray]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def rmsnorm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalization (Llama2-style)."""
    if x.shape[-1] != weight.shape[-1]:
        raise ConfigError(f"rmsnorm weight {weight.shape} mismatches input {x.shape}")
    variance = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


def layernorm(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None, eps: float = 1e-5
) -> np.ndarray:
    """Classic layer normalization (OPT-style)."""
    if x.shape[-1] != weight.shape[-1]:
        raise ConfigError(f"layernorm weight {weight.shape} mismatches input {x.shape}")
    mean = np.mean(x, axis=-1, keepdims=True)
    variance = np.var(x, axis=-1, keepdims=True)
    out = (x - mean) / np.sqrt(variance + eps) * weight
    if bias is not None:
        out = out + bias
    return out


def rmsnorm_into(
    x: np.ndarray,
    weight: np.ndarray,
    out: np.ndarray,
    sq: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """:func:`rmsnorm` fused into a preallocated output buffer.

    Bit-identical to ``rmsnorm(x, weight, eps)`` (same operations in the
    same order) but every ``(n, hidden)``-sized intermediate lands in
    caller-provided storage: ``sq`` holds the squared inputs, ``out`` the
    result.  The restoration pipeline normalizes chunk after chunk through
    the same two buffers, so no per-chunk temporaries are allocated and
    the working set stays cache-resident.
    """
    if x.shape[-1] != weight.shape[-1]:
        raise ConfigError(f"rmsnorm weight {weight.shape} mismatches input {x.shape}")
    if out.shape != x.shape:
        raise ConfigError(f"out shape {out.shape} mismatches input {x.shape}")
    if sq is None:
        sq = np.empty_like(x)
    elif sq.shape != x.shape:
        raise ConfigError(f"scratch shape {sq.shape} mismatches input {x.shape}")
    np.square(x, out=sq)
    variance = np.sum(sq, axis=-1, keepdims=True)
    variance /= x.shape[-1]
    np.sqrt(variance + eps, out=variance)
    np.divide(x, variance, out=out)
    np.multiply(out, weight, out=out)
    return out


def layernorm_into(
    x: np.ndarray,
    weight: np.ndarray,
    out: np.ndarray,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """:func:`layernorm` fused into a preallocated output buffer.

    Bit-identical to ``layernorm(x, weight, bias, eps)`` but the three
    ``(n, hidden)``-sized intermediates (centered, scaled, weighted) are
    all written in place into ``out``.
    """
    if x.shape[-1] != weight.shape[-1]:
        raise ConfigError(f"layernorm weight {weight.shape} mismatches input {x.shape}")
    if out.shape != x.shape:
        raise ConfigError(f"out shape {out.shape} mismatches input {x.shape}")
    mean = np.mean(x, axis=-1, keepdims=True)
    variance = np.var(x, axis=-1, keepdims=True)
    np.subtract(x, mean, out=out)
    np.divide(out, np.sqrt(variance + eps), out=out)
    np.multiply(out, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


#: OpenBLAS runs an sgemm whose ``m * n * k`` is at most this through its
#: unpacked small-matrix kernel; one element above, it packs a panel of
#: the weight on every call and a 2–8-row product costs 2–3x the same
#: bytes.  Probed on numpy 2.4 / bundled OpenBLAS 0.3.31, one thread,
#: AVX-512 Xeon (one call, µs): m = 4, k = 512: n = 488 → 23,
#: n = 489 → 60; m = 2, k = 512: n = 976 → 51, n = 977 → 120; m = 8,
#: k = 512: n = 244 → 20, n = 245 → 42; and the same step at k = 1408
#: for m = 2, 4, 8 (n = 355 / 356, 177 / 178, 88 / 89).
SMALL_GEMM_MNK = 1_000_000

#: Most weight floats in one :func:`slab_matmul` row slab (256 KB): 128
#: rows at n = 512, 32 at n = 1408, 16 at n = 4096.  Probed on the
#: bench-mid shapes (k×n: Q/K/V and W_o 512×512, gate/up 512×1408, down
#: 1408×512, LM head 512×4096), same host and BLAS, each product cycling
#: through 192 MB of weights so every one comes from DRAM; median of 5,
#: slab / one-call time at m = 2 4 8 for 16 / 32 / 64 / 128 Ki (— no slab):
#:   512×512   .67 .35 .41 / .56 .31 .34 / .56 .29 .32 / .99 .53 .39
#:   512×1408  —           / .33 .40 .44 / .29 .36 .40 / .60 .67 .85
#:   1408×512  .38 .40 .44 / .30 .35 .37 / .34 .39 .34 / .50 .53 .42
#:   512×4096  —           / —           / .25 .28 .33 / .23 .25 .33
#: 64 Ki is best or within noise of it here and at m = 12–32.  A one-row
#: GEMV already streams the weight once; slabs cost it 1.15–1.25x.
SLAB_FLOATS = 65_536

#: Most rows :func:`slab_matmul` sums over slabs: the largest m at which
#: slabs are no slower than one call on every bench-mid shape.  Same
#: probe at 64 Ki, on 512×512 / 512×1408 / 1408×512 (512×4096 has no
#: slab inside the limit from m = 16 up): m = 16: .45 .54 .44; m = 32:
#: .66 .81 .64; m = 48: .92 — .83; m = 56: .92–.97 — .86–.88; m = 60:
#: .91–1.01 — .95–1.01; m = 64: .94–1.09 — 1.07–1.09.  A constant, not a
#: start-up autotune: two runs of one schedule must round identically.
M_MAX = 56


def slab_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for an ``(m, k)`` batch, issued at sizes BLAS runs fast.

    A product of ``2 <= m <= M_MAX`` rows is summed over contiguous row
    slabs ``x[:, k0:k0 + kb] @ w[k0:k0 + kb]``, ``kb`` the largest
    multiple of 16 with ``kb * n <= SLAB_FLOATS`` and ``m * kb * n <=
    SMALL_GEMM_MNK``.  Slabs are views of ``w``: no weight is copied,
    re-laid-out or cached.  One row (numpy's GEMV), more than ``M_MAX``
    rows, ``kb >= k`` or no 16-row slab is exactly one ``x @ w``.

    Slabs sum ``k`` in another order than one call, so the result agrees
    with ``x @ w`` to float32 rounding, not bit for bit; the slab rows
    depend only on the shapes, so equal calls return equal bits.
    """
    m, k = x.shape
    n = w.shape[1]
    if not 2 <= m <= M_MAX:
        return x @ w
    kb = min(SLAB_FLOATS // n, SMALL_GEMM_MNK // (m * n)) // 16 * 16
    if not 16 <= kb < k:
        return x @ w
    out = np.matmul(x[:, :kb], w[:kb])
    tmp = np.empty((m, n), dtype=out.dtype)
    for k0 in range(kb, k, kb):
        np.matmul(x[:, k0 : k0 + kb], w[k0 : k0 + kb], out=tmp)
        out += tmp
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit, the SwiGLU gate activation."""
    return x / (1.0 + np.exp(-x))


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in GPT/OPT)."""
    c = np.sqrt(2.0 / np.pi).astype(x.dtype) if hasattr(x, "dtype") else np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))


def causal_mask(n_queries: int, n_keys: int, query_offset: int) -> np.ndarray:
    """Boolean mask: ``mask[i, j]`` is True where query ``i`` may attend.

    Query ``i`` sits at absolute position ``query_offset + i`` and may
    attend to key positions ``0..query_offset + i`` inclusive.
    """
    if n_queries < 0 or n_keys < 0 or query_offset < 0:
        raise ConfigError("mask dimensions must be non-negative")
    q_pos = np.arange(n_queries)[:, None] + query_offset
    k_pos = np.arange(n_keys)[None, :]
    return k_pos <= q_pos
