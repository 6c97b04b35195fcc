"""Multi-head attention with KV-cache semantics.

Implements the attention equations of §2.1: per-token Q/K/V projections,
softmaxed scaled dot-product over all cached positions, weighted average of
values, and the output projection.  Supports GQA by repeating KV heads,
which the paper lists as an extension (§7); all paper experiments use MHA.
"""

from __future__ import annotations

from operator import matmul as plain_matmul

import numpy as np

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.models.tensor_ops import MatMul

#: Query rows per tile of the block attention kernel.  Measured on the
#: benchmark host (8 heads x 64, one BLAS thread): 64 beats 16/32/128/256
#: at 256- and 512-token blocks, the sizes SplitFuse chunks and template
#: prefills issue; 128 is ~7 % ahead only from 2048 tokens up.
QUERY_TILE = 64

_MASKED_SCORE = np.float32(-1e30)
_STRICT_UPPER = np.triu(np.ones((QUERY_TILE, QUERY_TILE), dtype=bool), k=1)


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Reshape ``(n, heads * head_dim)`` to ``(n, heads, head_dim)``."""
    n, width = x.shape
    if width % n_heads != 0:
        raise ConfigError(f"width {width} not divisible by {n_heads} heads")
    return x.reshape(n, n_heads, width // n_heads)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    n, heads, head_dim = x.shape
    return x.reshape(n, heads * head_dim)


def repeat_kv(x: np.ndarray, n_rep: int) -> np.ndarray:
    """Repeat the KV heads of ``(n, heads, head_dim)`` for grouped-query attention."""
    if n_rep == 1:
        return x
    return np.repeat(x, n_rep, axis=1)


def scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    query_offset: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Causal attention over cached keys/values.

    Args:
        queries: ``(n_q, n_heads, head_dim)`` for the new tokens.
        keys: ``(n_k, n_heads, head_dim)`` — full history including the new
            tokens' own keys.
        values: Same shape as ``keys``.
        query_offset: Absolute position of the first query token; query
            ``i`` may attend to key positions ``<= query_offset + i``, so
            ``0 <= query_offset`` and ``query_offset + n_q <= n_k``.
        out: Optional ``(n_q, n_heads, head_dim)`` float32 destination
            (any token-major view, e.g. a row range of a packed buffer);
            the result is written there instead of a fresh array.

    Returns:
        ``(n_q, n_heads, head_dim)`` attention output (``out`` if given).

    Two calls with the same shapes and inputs are bit-identical.  The
    same query row computed inside a differently shaped block (another
    chunking of one prompt) runs through differently blocked GEMMs and
    agrees only to float32 rounding, like every other BLAS stage.
    """
    n_q, n_heads, head_dim = queries.shape
    n_k = keys.shape[0]
    if keys.shape != values.shape:
        raise ConfigError("keys and values must share a shape")
    if keys.shape[1] != n_heads:
        raise ConfigError(f"key heads {keys.shape[1]} mismatch query heads {n_heads}")
    if query_offset < 0 or query_offset + n_q > n_k:
        raise ConfigError(
            f"queries at positions [{query_offset}, {query_offset + n_q}) "
            f"need their own keys among the {n_k} given"
        )
    if out is None:
        out = np.empty((n_q, n_heads, head_dim), dtype=np.float32)
    elif out.shape != queries.shape or out.dtype != np.float32:
        raise ConfigError(
            f"out must be float32 {queries.shape}, got {out.dtype} {out.shape}"
        )
    # Head-major BLAS matmuls over transposed views of the token-major
    # Q/K/V (strided batch slices map onto BLAS leading dimensions, so
    # nothing is copied), QUERY_TILE query rows at a time.  A tile only
    # meets the key prefix it can see, so the masked upper triangle of a
    # fresh prompt is never computed and the score scratch is
    # O(heads * tile * n_k) however long the block is.  A decode token is
    # the one-row tile: it sees every key and its mask square is empty.
    q_heads = queries.transpose(1, 0, 2)  # (heads, n_q, head_dim)
    k_heads = keys.transpose(1, 2, 0)  # (heads, head_dim, n_k)
    v_heads = values.transpose(1, 0, 2)  # (heads, n_k, head_dim)
    out_heads = out.transpose(1, 0, 2)
    tile = min(QUERY_TILE, n_q)
    scratch = np.empty(n_heads * tile * (query_offset + n_q), dtype=np.float32)
    row_stat = np.empty((n_heads, tile, 1), dtype=np.float32)
    # float32, or the in-place multiply would run the float64 loop
    scale = np.float32(1.0 / np.sqrt(head_dim))
    for t0 in range(0, n_q, QUERY_TILE):
        t1 = min(t0 + QUERY_TILE, n_q)
        rows = t1 - t0
        visible = query_offset + t1
        # A contiguous carve of the one scratch: the elementwise passes
        # are slower on a strided [:, :rows, :visible] view.
        scores = scratch[: n_heads * rows * visible].reshape(n_heads, rows, visible)
        stat = row_stat[:, :rows]
        np.matmul(q_heads[:, t0:t1], k_heads[:, :, :visible], out=scores)
        scores *= scale
        # Only the tile's last `rows` keys can lie in a query's future:
        # mask the strict upper triangle of that diagonal square.
        np.copyto(
            scores[:, :, visible - rows :],
            _MASKED_SCORE,
            where=_STRICT_UPPER[:rows, :rows],
        )
        np.max(scores, axis=-1, keepdims=True, out=stat)
        scores -= stat
        np.exp(scores, out=scores)
        np.sum(scores, axis=-1, keepdims=True, out=stat)
        scores /= stat
        np.matmul(scores, v_heads[:, :visible], out=out_heads[:, t0:t1])
    return out


def attention_module(
    hidden_norm: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    config: ModelConfig,
    matmul: MatMul = plain_matmul,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project normalized hidden states into per-head Q, K, V.

    Returns Q of shape ``(n, n_heads, head_dim)`` and K/V of shape
    ``(n, n_kv_heads, head_dim)`` — RoPE is applied by the caller because
    it needs absolute positions (the detail HCache's restoration kernel
    must replay, §5).  ``matmul`` is the dense product (default ``@``).
    """
    q = split_heads(matmul(hidden_norm, wq), config.n_heads)
    k = split_heads(matmul(hidden_norm, wk), config.n_kv_heads)
    v = split_heads(matmul(hidden_norm, wv), config.n_kv_heads)
    return q, k, v
