"""Tests for tensor primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.tensor_ops import (
    M_MAX,
    SMALL_GEMM_MNK,
    causal_mask,
    gelu,
    layernorm,
    panelled_matmul,
    rmsnorm,
    silu,
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


#: The bench-mid product shapes (output projection, gate/up, down, LM
#: head) and a width no 16-column panel divides.
PRODUCT_SHAPES = [(512, 512), (512, 1408), (1408, 512), (512, 4096), (512, 1000)]


def _operands(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, k), dtype=np.float32)
    w = rng.standard_normal((k, n), dtype=np.float32) / np.float32(np.sqrt(k))
    return x, w


def _panelled(m, k, n):
    return 2 <= m <= M_MAX and m * k * n > SMALL_GEMM_MNK


class TestPanelledMatmul:
    @pytest.mark.parametrize("k,n", PRODUCT_SHAPES)
    @pytest.mark.parametrize("m", range(1, 17))
    def test_equals_one_call(self, m, k, n, panel_spy):
        x, w = _operands(m, k, n)
        ref = x @ w
        got = panelled_matmul(x, w)
        assert got.shape == ref.shape and got.dtype == np.float32
        # The spy NaN-fills the output buffer: every column was written.
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-5)
        assert np.array_equal(panelled_matmul(x, w), got)
        if _panelled(m, k, n):
            assert panel_spy.panels >= 4  # two calls, at least two panels each
        else:
            # Outside the panelled range the primitive *is* one call.
            assert panel_spy.panels == 0
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("k,n", PRODUCT_SHAPES)
    @pytest.mark.parametrize("m", range(2, M_MAX + 1))
    def test_panels_stay_inside_the_limit(self, m, k, n, monkeypatch):
        widths = []
        real = np.matmul

        def recording(a, b, out):
            widths.append(b.shape[1])
            assert not b.flags.owndata and np.shares_memory(b, w)
            return real(a, b, out=out)

        x, w = _operands(m, k, n)
        monkeypatch.setattr(np, "matmul", recording)
        panelled_matmul(x, w)
        monkeypatch.undo()
        if not _panelled(m, k, n):
            assert widths == []
            return
        assert sum(widths) == n
        assert all(m * k * width <= SMALL_GEMM_MNK for width in widths)
        assert all(width % 16 == 0 for width in widths[:-1])
        assert len(set(widths[:-1])) <= 1 and widths[-1] <= widths[0]
        # Fewest 16-aligned panels: one fewer could not hold n columns.
        widest = SMALL_GEMM_MNK // (m * k) // 16 * 16
        assert (len(widths) - 1) * widest < n

    def test_a_depth_no_aligned_panel_fits_is_one_call(self, panel_spy):
        # 2 x 40 000 x 16 already exceeds the limit: panels cannot help.
        x, w = _operands(2, 40_000, 32)
        assert np.array_equal(panelled_matmul(x, w), x @ w)
        assert panel_spy.panels == 0
