"""Numerically stable tensor primitives for the numpy transformer.

All functions are pure and operate on ``float32`` arrays (the reproduction's
stand-in for the serving system's FP16: float32 keeps the lossless-restore
property easy to assert exactly while preserving every structural detail).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


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

#: Most rows a :func:`panelled_matmul` product issues as column panels.
#: The largest m at which panels are no slower than one call on every
#: bench-mid product shape (512×512, 512×1408, 1408×512, 512×4096 — the
#: output projection, gate/up, down and LM head), measured m = 1 … 16
#: with DRAM-resident weights, best of 7, panel time / one-call time:
#: m = 2: 1.0 (inside the limit), 0.41, 0.64, 0.51; m = 4: 0.48, 0.44,
#: 0.88, 0.53; m = 6: 0.76, 0.51, 0.85, 0.78; m = 7: 0.58, 0.59, 1.16,
#: 1.13; m = 8: 0.67, 0.59, 1.14, 0.98; by m = 16 the 1408×512 ratio is
#: 2.0.  Odd m and m > 6 lose the gain on the two deepest shapes —
#: consistent with the small kernel streaming the weight once per
#: register block of rows — but m = 3 and 5 only break even there
#: (0.91–1.03) and keep the ~0.5 they win on the others.  A constant,
#: not a start-up autotune: two runs of one schedule must round
#: identically.
M_MAX = 6

#: Panel widths are multiples of the AVX-512 kernel's 16-float column
#: step, so no panel ends in a masked tail.
_PANEL_ALIGN = 16


def panelled_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for an ``(m, k)`` batch, issued at sizes BLAS runs fast.

    A product with ``2 <= m <= M_MAX`` rows whose ``m * k * n`` exceeds
    :data:`SMALL_GEMM_MNK` is issued as the fewest equal-width column
    panels (multiples of 16 columns, the last one taking the remainder)
    that each stay within the limit: every panel is an ``np.matmul`` of
    a strided column view of ``w`` into the matching column slice of one
    output array, so no weight is copied, re-laid-out or cached.  Any
    other product — one row (numpy's GEMV path), more than ``M_MAX``
    rows, or one already inside the limit — is exactly one ``x @ w``.

    A panel computes each output element from the same row and column
    as the one call, but the kernels sum ``k`` in a different order, so
    the result agrees with ``x @ w`` to float32 rounding, not bit for
    bit; the panelling depends only on the shapes, so equal calls
    return equal bits.  On another BLAS the panels cost a few extra
    calls, never correctness.
    """
    m, k = x.shape
    n = w.shape[1]
    if (
        not 2 <= m <= M_MAX
        or m * k * n <= SMALL_GEMM_MNK
        or m * k * _PANEL_ALIGN > SMALL_GEMM_MNK  # not even one aligned panel fits
    ):
        return x @ w
    widest = SMALL_GEMM_MNK // (m * k) // _PANEL_ALIGN * _PANEL_ALIGN
    panels = -(-n // widest)
    width = -(-n // (panels * _PANEL_ALIGN)) * _PANEL_ALIGN
    out = np.empty((m, n), dtype=np.result_type(x, w))
    for c0 in range(0, n, width):
        np.matmul(x, w[:, c0 : c0 + width], out=out[:, c0 : c0 + width])
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
