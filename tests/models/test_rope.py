"""Tests for rotary position embeddings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.rope import apply_rope, rope_angles, rope_frequencies


class TestFrequencies:
    def test_shape(self):
        assert rope_frequencies(16).shape == (8,)

    def test_decreasing(self):
        freqs = rope_frequencies(32)
        assert np.all(np.diff(freqs) < 0)

    def test_first_frequency_is_one(self):
        assert rope_frequencies(8)[0] == pytest.approx(1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_frequencies(7)


class TestApplyRope:
    def test_position_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 16)).astype(np.float32)
        out = apply_rope(x, np.array([0]))
        assert np.allclose(out, x, atol=1e-6)

    def test_preserves_norm(self):
        """Rotations preserve vector length."""
        x = np.random.default_rng(1).normal(size=(5, 4, 32)).astype(np.float32)
        out = apply_rope(x, np.arange(5))
        assert np.allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-4
        )

    def test_position_dependence(self):
        x = np.ones((2, 1, 8), dtype=np.float32)
        out = apply_rope(x, np.array([1, 2]))
        assert not np.allclose(out[0], out[1])

    def test_relative_property(self):
        """RoPE encodes relative positions: <R(p)q, R(p+k)v> depends only
        on k.  Check via inner products of rotated vectors."""
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 1, 16)).astype(np.float32)
        k = rng.normal(size=(1, 1, 16)).astype(np.float32)
        def dot_at(p_q, p_k):
            rq = apply_rope(q, np.array([p_q]))
            rk = apply_rope(k, np.array([p_k]))
            return float(np.sum(rq * rk))
        assert dot_at(3, 7) == pytest.approx(dot_at(13, 17), abs=1e-4)

    def test_deterministic_per_position(self):
        """The same token vector at the same absolute position rotates
        identically — the property HCache restoration relies on (§5)."""
        x = np.random.default_rng(3).normal(size=(1, 2, 16)).astype(np.float32)
        block = np.concatenate([x, x, x], axis=0)
        rotated_block = apply_rope(block, np.array([5, 6, 5]))
        assert np.array_equal(rotated_block[0], rotated_block[2])
        single = apply_rope(x, np.array([5]))
        assert np.allclose(rotated_block[0], single[0], atol=1e-7)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            apply_rope(np.zeros((2, 8)), np.array([0, 1]))
        with pytest.raises(ConfigError):
            apply_rope(np.zeros((2, 1, 8)), np.array([0]))

    def test_angles_shape(self):
        angles = rope_angles(np.arange(5), 16)
        assert angles.shape == (5, 8)


class TestFusedRotations:
    """The restoration pipeline's allocation-free rotation variants must
    stay bit-identical to apply_rope."""

    def _inputs(self, n=97, heads=4, head_dim=16, seed=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, heads, head_dim)).astype(np.float32)
        return x, np.arange(n)

    def test_fullwidth_rotation_bit_exact(self):
        from repro.models.rope import rope_rotate_fullwidth_into, rope_rotation_tables

        x, positions = self._inputs()
        c, s = rope_rotation_tables(positions, 16, n_heads=4)
        assert c.shape == (97, 4, 16) and s.shape == (97, 4, 16)
        out = np.empty_like(x)
        rope_rotate_fullwidth_into(x, c, s, out=out, swap=np.empty_like(x))
        assert np.array_equal(out, apply_rope(x, positions))

    def test_fullwidth_sliced_chunks_bit_exact(self):
        from repro.models.rope import rope_rotate_fullwidth_into, rope_rotation_tables

        x, positions = self._inputs()
        c, s = rope_rotation_tables(positions, 16, n_heads=4)
        out = np.empty_like(x)
        swap = np.empty((32, 4, 16), np.float32)
        for start in range(0, 97, 32):
            stop = min(start + 32, 97)
            rope_rotate_fullwidth_into(
                x[start:stop], c[start:stop], s[start:stop],
                out=out[start:stop], swap=swap[: stop - start],
            )
        assert np.array_equal(out, apply_rope(x, positions))

    def test_fullwidth_rejects_aliasing_and_bad_shapes(self):
        from repro.models.rope import rope_rotate_fullwidth_into, rope_rotation_tables

        x, positions = self._inputs(n=8)
        c, s = rope_rotation_tables(positions[:8], 16, n_heads=4)
        with pytest.raises(ConfigError):
            rope_rotate_fullwidth_into(x, c, s, out=x, swap=np.empty_like(x))
        with pytest.raises(ConfigError):
            rope_rotate_fullwidth_into(
                x, c, s, out=np.empty_like(x), swap=np.empty((2, 4, 16), np.float32)
            )

    def test_rotation_tables_reject_bad_heads(self):
        from repro.models.rope import rope_rotation_tables

        with pytest.raises(ConfigError):
            rope_rotation_tables(np.arange(4), 16, n_heads=0)
