"""Tests for tensor primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.tensor_ops import (
    M_MAX,
    SLAB_FLOATS,
    SMALL_GEMM_MNK,
    causal_mask,
    gelu,
    layernorm,
    rmsnorm,
    silu,
    slab_matmul,
    softmax,
)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 9)).astype(np.float32)
        out = softmax(x)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_stable_for_large_values(self):
        x = np.array([1e4, 1e4 + 1.0], dtype=np.float32)
        out = softmax(x)
        assert np.all(np.isfinite(out))
        assert out[1] > out[0]

    def test_invariant_to_shift(self):
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_axis_argument(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        out = softmax(x, axis=0)
        assert np.allclose(out.sum(axis=0), 1.0)


class TestNorms:
    def test_rmsnorm_unit_scale(self):
        x = np.random.default_rng(2).normal(size=(10, 16)).astype(np.float32)
        out = rmsnorm(x, np.ones(16, dtype=np.float32))
        rms = np.sqrt(np.mean(np.square(out), axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_rmsnorm_weight_applied(self):
        x = np.ones((1, 4), dtype=np.float32)
        out = rmsnorm(x, np.array([2.0, 2.0, 2.0, 2.0], dtype=np.float32))
        assert np.allclose(out, 2.0, atol=1e-4)

    def test_rmsnorm_shape_mismatch(self):
        with pytest.raises(ConfigError):
            rmsnorm(np.ones((2, 4)), np.ones(8))

    def test_layernorm_zero_mean_unit_var(self):
        x = np.random.default_rng(3).normal(loc=5.0, size=(8, 32)).astype(np.float32)
        out = layernorm(x, np.ones(32, dtype=np.float32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_bias(self):
        x = np.random.default_rng(4).normal(size=(2, 8)).astype(np.float32)
        bias = np.full(8, 3.0, dtype=np.float32)
        out = layernorm(x, np.ones(8, dtype=np.float32), bias=bias)
        assert np.allclose(out.mean(axis=-1), 3.0, atol=1e-4)

    def test_layernorm_shape_mismatch(self):
        with pytest.raises(ConfigError):
            layernorm(np.ones((2, 4)), np.ones(5))


class TestActivations:
    def test_silu_at_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_silu_positive_limit(self):
        x = np.array([20.0])
        assert silu(x)[0] == pytest.approx(20.0, rel=1e-4)

    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_gelu_monotone_region(self):
        x = np.linspace(0, 5, 50)
        y = gelu(x)
        assert np.all(np.diff(y) > 0)


class TestCausalMask:
    def test_prefill_mask_lower_triangular(self):
        mask = causal_mask(3, 3, 0)
        expected = np.tril(np.ones((3, 3), dtype=bool))
        assert np.array_equal(mask, expected)

    def test_decode_mask_sees_all_history(self):
        mask = causal_mask(1, 10, 9)
        assert mask.all()

    def test_offset_blocks_future(self):
        mask = causal_mask(2, 5, 2)
        assert mask[0].tolist() == [True, True, True, False, False]
        assert mask[1].tolist() == [True, True, True, True, False]

    def test_negative_dims_rejected(self):
        with pytest.raises(ConfigError):
            causal_mask(-1, 3, 0)


#: The bench-mid product shapes (Q/K/V and output projection, gate/up,
#: down, LM head) and a depth no slab divides, off the 16-column grid.
PRODUCT_SHAPES = [(512, 512), (512, 1408), (1408, 512), (512, 4096), (1000, 1000)]


def _operands(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, k), dtype=np.float32)
    w = rng.standard_normal((k, n), dtype=np.float32) / np.float32(np.sqrt(k))
    return x, w


def _slab_rows(m, k, n):
    """The contract's slab height, or ``None`` where the product is one call."""
    if not 2 <= m <= M_MAX:
        return None
    fits = [r for r in range(16, SLAB_FLOATS // n + 1, 16) if m * r * n <= SMALL_GEMM_MNK]
    return fits[-1] if fits and fits[-1] < k else None


def _first_row(slab, w):
    """Row of ``w`` where the view ``slab`` starts."""
    offset = slab.__array_interface__["data"][0] - w.__array_interface__["data"][0]
    assert offset % w.strides[0] == 0
    return offset // w.strides[0]


class TestSlabMatmul:
    @pytest.mark.parametrize("k,n", PRODUCT_SHAPES)
    @pytest.mark.parametrize("m", range(1, 17))
    def test_equals_one_call(self, m, k, n, slab_spy):
        x, w = _operands(m, k, n)
        ref = x @ w
        got = slab_matmul(x, w)
        assert got.shape == ref.shape and got.dtype == np.float32
        # The spy NaN-fills the slab scratch: every slab was written.
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-5)
        assert np.array_equal(slab_matmul(x, w), got)
        if _slab_rows(m, k, n) is None:
            # Outside the slab range the primitive *is* one call.
            assert slab_spy.slabs == []
            assert np.array_equal(got, ref)
        else:
            assert len(slab_spy.slabs) >= 4  # two calls, at least two slabs each

    @pytest.mark.parametrize("k,n", PRODUCT_SHAPES)
    @pytest.mark.parametrize("m", range(1, 17))
    def test_slabs_are_row_blocks_of_w_covering_k_once(self, m, k, n, slab_spy):
        x, w = _operands(m, k, n)
        slab_matmul(x, w)
        kb = _slab_rows(m, k, n)
        if kb is None:
            assert slab_spy.slabs == []
            return
        covered = np.zeros(k, dtype=int)
        for slab in slab_spy.slabs:
            assert slab.flags.c_contiguous and np.shares_memory(slab, w)
            assert slab.shape[1] == n
            assert m * slab.shape[0] * n <= SMALL_GEMM_MNK
            first = _first_row(slab, w)
            covered[first : first + slab.shape[0]] += 1
        assert np.array_equal(covered, np.ones(k, dtype=int))
        # Full slabs of the largest height the contract allows; the last
        # one takes the remainder.
        heights = [slab.shape[0] for slab in slab_spy.slabs]
        assert set(heights[:-1]) == {kb} and heights[-1] <= kb

    @pytest.mark.parametrize(
        "m,k,n",
        [
            (1, 512, 4096),  # one row: numpy's GEMV path
            (M_MAX + 1, 512, 512),  # more rows than slabs pay for
            (2, 512, 40_000),  # no 16-row slab inside the limit
            (4, 64, 256),  # one slab would cover all of k
        ],
        ids=["one-row", "past-m-max", "no-slab-fits", "slab-covers-k"],
    )
    def test_one_call_cases(self, m, k, n, slab_spy):
        x, w = _operands(m, k, n)
        assert np.array_equal(slab_matmul(x, w), x @ w)
        assert slab_spy.slabs == []
