"""Rotary position embedding (RoPE) [Su et al., 2024].

HCache's restoration path re-applies RoPE to recomputed keys (§5: "we write
a custom kernel to apply the ROPE position embedding to the recomputed KV
values"), so the reproduction implements it exactly: restoration must know
each token's absolute position to regenerate a bit-identical key.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def rope_frequencies(head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Inverse frequencies for each rotary pair, shape ``(head_dim // 2,)``."""
    if head_dim <= 0 or head_dim % 2 != 0:
        raise ConfigError(f"RoPE head_dim must be positive and even, got {head_dim}")
    exponents = np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
    return (base**-exponents).astype(np.float32)


def rope_angles(positions: np.ndarray, head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Rotation angles, shape ``(n_tokens, head_dim // 2)``."""
    positions = np.asarray(positions, dtype=np.float32)
    if positions.ndim != 1:
        raise ConfigError("positions must be a 1-D array of absolute token positions")
    return positions[:, None] * rope_frequencies(head_dim, base)[None, :]


def rope_cos_sin(
    positions: np.ndarray, head_dim: int, base: float = 10000.0
) -> tuple[np.ndarray, np.ndarray]:
    """Precomputed rotation terms, each ``(n_tokens, 1, head_dim // 2)``.

    The restoration hot path rotates every layer's keys with the same
    positions; computing cos/sin once amortizes the trigonometry across
    layers.
    """
    angles = rope_angles(positions, head_dim, base)
    return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]


def rope_rotation_tables(
    positions: np.ndarray,
    head_dim: int,
    n_heads: int = 1,
    base: float = 10000.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-width rotation tables for :func:`rope_rotate_fullwidth_into`.

    Returns ``(C, S)`` of shape ``(n_tokens, n_heads, head_dim)`` with
    ``C = [cos | cos]`` and ``S = [-sin | sin]`` along the last axis.
    Materializing the head broadcast once per restore turns the rotation
    into three contiguous full-width vector ops instead of six strided
    half-width broadcast passes — the dominant elementwise cost of the
    projection before this fusion.
    """
    if n_heads <= 0:
        raise ConfigError("n_heads must be positive")
    cos, sin = rope_cos_sin(positions, head_dim, base)  # each (n, 1, head_dim // 2)
    n = cos.shape[0]
    half = head_dim // 2
    c = np.empty((n, n_heads, head_dim), dtype=np.float32)
    s = np.empty_like(c)
    c[..., :half] = cos
    c[..., half:] = cos
    np.negative(sin, out=s[..., :half])
    s[..., half:] = sin
    return c, s


def rope_rotate_fullwidth_into(
    x: np.ndarray, c: np.ndarray, s: np.ndarray, out: np.ndarray, swap: np.ndarray
) -> np.ndarray:
    """Rotation as ``out = x * C + swap_halves(x) * S`` — three contiguous
    full-width passes plus one half-swap copy.

    Bit-identical to :func:`apply_rope`: the first half is ``x1 * cos + x2 * (-sin)`` — IEEE multiplication is
    sign-symmetric, so ``x2 * (-sin) == -(x2 * sin)`` exactly, and adding
    a negated product equals the subtraction — and the second half is
    ``x2 * cos + x1 * sin``, the same two products summed in the other
    order (IEEE addition is commutative).  ``swap`` is a full-width
    scratch buffer of ``x``'s shape; ``out`` must not alias ``x``.
    """
    if x.shape != out.shape or x.shape != swap.shape:
        raise ConfigError(
            f"out {out.shape} and swap {swap.shape} must match input {x.shape}"
        )
    if np.may_share_memory(x, out):
        raise ConfigError("rope_rotate_fullwidth_into requires out not to alias the input")
    if np.may_share_memory(swap, x) or np.may_share_memory(swap, out):
        raise ConfigError("rope_rotate_fullwidth_into requires a non-aliasing swap buffer")
    half = x.shape[-1] // 2
    swap[..., :half] = x[..., half:]
    swap[..., half:] = x[..., :half]
    np.multiply(x, c, out=out)
    np.multiply(swap, s, out=swap)
    np.add(out, swap, out=out)
    return out


def apply_rope(x: np.ndarray, positions: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotate query/key vectors by their position-dependent angles.

    Args:
        x: Array of shape ``(n_tokens, n_heads, head_dim)``.
        positions: Absolute position of each token, shape ``(n_tokens,)``.
        base: RoPE base frequency.

    Returns:
        Rotated array of the same shape and dtype as ``x``.  Uses the
        half-split ("rotate half") convention of Llama2.
    """
    if x.ndim != 3:
        raise ConfigError(f"expected (tokens, heads, head_dim), got shape {x.shape}")
    n_tokens, _, head_dim = x.shape
    positions = np.asarray(positions)
    if positions.shape != (n_tokens,):
        raise ConfigError(
            f"positions shape {positions.shape} mismatches token count {n_tokens}"
        )
    cos, sin = rope_cos_sin(positions, head_dim, base)  # each (n, 1, hd/2)
    half = head_dim // 2
    x1, x2 = x[..., :half], x[..., half:]
    rotated = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    return rotated.astype(x.dtype)
