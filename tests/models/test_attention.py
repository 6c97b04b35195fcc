"""Tests for the attention module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.attention import (
    QUERY_TILE,
    merge_heads,
    repeat_kv,
    scaled_dot_product_attention,
    split_heads,
)
from repro.models.reference import naive_scaled_dot_product_attention


class TestHeadReshaping:
    def test_split_merge_roundtrip(self):
        x = np.random.default_rng(0).normal(size=(6, 32)).astype(np.float32)
        assert np.array_equal(merge_heads(split_heads(x, 4)), x)

    def test_split_shape(self):
        assert split_heads(np.zeros((3, 32)), 8).shape == (3, 8, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            split_heads(np.zeros((3, 30)), 8)

    def test_repeat_kv_identity(self):
        x = np.zeros((2, 4, 8))
        assert repeat_kv(x, 1) is x

    def test_repeat_kv_gqa(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 4))
        out = repeat_kv(x, 3)
        assert out.shape == (2, 6, 4)
        assert np.array_equal(out[:, 0], out[:, 1])
        assert np.array_equal(out[:, 0], out[:, 2])


class TestScaledDotProductAttention:
    def test_single_token_attends_to_itself(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 2, 8)).astype(np.float32)
        kv = rng.normal(size=(1, 2, 8)).astype(np.float32)
        out = scaled_dot_product_attention(q, kv, kv, query_offset=0)
        # With one key, the output is exactly the value.
        assert np.allclose(out, kv, atol=1e-6)

    def test_causality(self):
        """Changing a future key/value must not affect earlier outputs."""
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 2, 8)).astype(np.float32)
        k = rng.normal(size=(3, 2, 8)).astype(np.float32)
        v = rng.normal(size=(3, 2, 8)).astype(np.float32)
        out1 = scaled_dot_product_attention(q, k, v, query_offset=0)
        k2, v2 = k.copy(), v.copy()
        k2[2] += 10.0
        v2[2] -= 10.0
        out2 = scaled_dot_product_attention(q, k2, v2, query_offset=0)
        assert np.allclose(out1[0], out2[0], atol=1e-6)
        assert np.allclose(out1[1], out2[1], atol=1e-6)
        assert not np.allclose(out1[2], out2[2])

    def test_decode_equals_prefill_row(self):
        """Decoding the last token against the cache reproduces the same
        output as computing it inside a full prefill — the consistency
        KV caching is built on (§2.1)."""
        rng = np.random.default_rng(4)
        n, heads, dim = 6, 2, 8
        q = rng.normal(size=(n, heads, dim)).astype(np.float32)
        k = rng.normal(size=(n, heads, dim)).astype(np.float32)
        v = rng.normal(size=(n, heads, dim)).astype(np.float32)
        full = scaled_dot_product_attention(q, k, v, query_offset=0)
        last = scaled_dot_product_attention(q[-1:], k, v, query_offset=n - 1)
        assert np.allclose(full[-1], last[0], atol=1e-5)

    def test_uniform_scores_average_values(self):
        q = np.zeros((1, 1, 4), dtype=np.float32)
        k = np.random.default_rng(5).normal(size=(5, 1, 4)).astype(np.float32)
        v = np.stack([np.full((1, 4), float(i), dtype=np.float32) for i in range(5)])
        out = scaled_dot_product_attention(q, k, v, query_offset=4)
        assert np.allclose(out, 2.0, atol=1e-5)

    def test_shape_mismatch_rejected(self):
        q = np.zeros((1, 2, 8), dtype=np.float32)
        k = np.zeros((3, 2, 8), dtype=np.float32)
        v = np.zeros((4, 2, 8), dtype=np.float32)
        with pytest.raises(ConfigError):
            scaled_dot_product_attention(q, k, v, query_offset=0)

    def test_head_mismatch_rejected(self):
        q = np.zeros((1, 2, 8), dtype=np.float32)
        kv = np.zeros((3, 4, 8), dtype=np.float32)
        with pytest.raises(ConfigError):
            scaled_dot_product_attention(q, kv, kv, query_offset=0)

    def test_negative_offset_rejected(self):
        """Used to yield fully masked rows: the mean of all values."""
        q = np.zeros((2, 2, 8), dtype=np.float32)
        kv = np.zeros((4, 2, 8), dtype=np.float32)
        with pytest.raises(ConfigError):
            scaled_dot_product_attention(q, kv, kv, query_offset=-1)

    def test_queries_past_the_keys_rejected(self):
        q = np.zeros((2, 2, 8), dtype=np.float32)
        kv = np.zeros((4, 2, 8), dtype=np.float32)
        scaled_dot_product_attention(q, kv, kv, query_offset=2)
        with pytest.raises(ConfigError):
            scaled_dot_product_attention(q, kv, kv, query_offset=3)


def _qkv(n_q, query_offset, n_heads, seed=6, head_dim=16):
    rng = np.random.default_rng(seed)
    n_k = query_offset + n_q
    q = rng.normal(size=(n_q, n_heads, head_dim)).astype(np.float32)
    k = rng.normal(size=(n_k, n_heads, head_dim)).astype(np.float32)
    v = rng.normal(size=(n_k, n_heads, head_dim)).astype(np.float32)
    return q, k, v


class TestTiledKernel:
    """The query-tiled GEMM kernel against the einsum oracle."""

    @pytest.mark.parametrize("n_heads", [1, 8])
    @pytest.mark.parametrize("query_offset", [0, 7, 512])
    @pytest.mark.parametrize(
        "n_q",
        [1, 2, 16, QUERY_TILE - 1, QUERY_TILE, QUERY_TILE + 1, 2 * QUERY_TILE + 1, 256],
    )
    def test_matches_einsum_oracle(self, n_q, query_offset, n_heads):
        q, k, v = _qkv(n_q, query_offset, n_heads)
        out = scaled_dot_product_attention(q, k, v, query_offset)
        ref = naive_scaled_dot_product_attention(q, k, v, query_offset)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, atol=1e-5, rtol=0)

    def test_keys_beyond_the_last_query_are_ignored(self):
        q, k, v = _qkv(QUERY_TILE + 6, 5, 2)
        longer_k = np.concatenate([k, 100.0 * np.ones_like(k[:9])])
        longer_v = np.concatenate([v, 100.0 * np.ones_like(v[:9])])
        assert np.array_equal(
            scaled_dot_product_attention(q, longer_k, longer_v, 5),
            scaled_dot_product_attention(q, k, v, 5),
        )

    @pytest.mark.parametrize("n_q", [1, QUERY_TILE + 1])
    def test_out_form_equals_returned_form(self, n_q):
        q, k, v = _qkv(n_q, 7, 4)
        packed = np.full((n_q + 5, 4, 16), np.nan, dtype=np.float32)
        returned = scaled_dot_product_attention(q, k, v, 7, out=packed[3 : 3 + n_q])
        assert np.shares_memory(returned, packed)
        assert np.array_equal(returned, scaled_dot_product_attention(q, k, v, 7))
        assert np.isnan(packed[:3]).all() and np.isnan(packed[3 + n_q :]).all()

    @pytest.mark.parametrize(
        "out", [np.empty((3, 4, 16), np.float32), np.empty((2, 4, 16), np.float64)]
    )
    def test_wrong_out_rejected(self, out):
        q, k, v = _qkv(2, 7, 4)
        with pytest.raises(ConfigError):
            scaled_dot_product_attention(q, k, v, 7, out=out)

    def test_same_shape_calls_are_bit_identical(self):
        q, k, v = _qkv(2 * QUERY_TILE + 1, 7, 8)
        assert np.array_equal(
            scaled_dot_product_attention(q, k, v, 7),
            scaled_dot_product_attention(q.copy(), k.copy(), v.copy(), 7),
        )
