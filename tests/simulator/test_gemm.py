"""Tests for the tile-quantized GEMM timing model (Fig. 13b)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simulator.gemm import (
    DEFAULT_TILE,
    gemm_mfu,
    kv_projection_time,
    optimal_batch_tokens,
    round_up_tokens,
)


class TestRounding:
    def test_exact_tile_unchanged(self):
        assert round_up_tokens(256) == 256

    def test_rounds_up(self):
        assert round_up_tokens(794) == 896
        assert round_up_tokens(794, tile=64) == 832

    def test_zero_stays_zero(self):
        assert round_up_tokens(0) == 0

    def test_one_rounds_to_tile(self):
        assert round_up_tokens(1) == DEFAULT_TILE

    def test_custom_tile(self):
        assert round_up_tokens(100, tile=64) == 128

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            round_up_tokens(-1)

    def test_optimal_batch_floor(self):
        assert optimal_batch_tokens(800) == 768
        assert optimal_batch_tokens(512) == 512

    def test_optimal_batch_below_tile(self):
        assert optimal_batch_tokens(100) == 100


class TestMFU:
    def test_mfu_monotone_in_tokens(self, dram_platform):
        values = [gemm_mfu(n, dram_platform) for n in (1, 64, 256, 1024, 8192)]
        assert values == sorted(values)

    def test_mfu_bounded_by_ceiling(self, dram_platform):
        assert gemm_mfu(10**6, dram_platform) <= dram_platform.gemm_eff

    def test_tiny_gemm_mfu_low(self, dram_platform):
        assert gemm_mfu(1, dram_platform) < 0.2


class TestGemmTime:
    def test_step_function_within_tile(self, dram_platform):
        """Fig. 13b: GEMM time is flat between tile boundaries."""
        a = kv_projection_time(769, 5120, 5120, dram_platform)
        b = kv_projection_time(832, 5120, 5120, dram_platform)
        assert a.seconds == pytest.approx(b.seconds)

    def test_step_up_at_boundary(self, dram_platform):
        below = kv_projection_time(768, 5120, 5120, dram_platform)
        above = kv_projection_time(769, 5120, 5120, dram_platform)
        assert above.seconds > below.seconds

    def test_padded_tokens_recorded(self, dram_platform):
        t = kv_projection_time(794, 5120, 5120, dram_platform)
        assert t.padded_tokens == 896
        assert t.n_tokens == 794

    def test_projection_fig13b_magnitude(self, dram_platform):
        """A 1024-token 13B K/V projection on an A100 takes a few hundred
        microseconds (Fig. 13b's y-axis window, read loosely)."""
        t = kv_projection_time(1024, 5120, 5120, dram_platform)
        assert 250e-6 < t.seconds < 600e-6

    def test_projection_flops_are_two_padded_gemms(self, dram_platform):
        proj = kv_projection_time(500, 4096, 4096, dram_platform)
        assert proj.flops == pytest.approx(2 * 2.0 * 512 * 4096 * 4096)

    def test_h800_faster_than_a100(self, dram_platform):
        from repro.simulator import platform_preset

        h800 = platform_preset("h800-dram")
        a100 = kv_projection_time(1024, 5120, 5120, dram_platform)
        h = kv_projection_time(1024, 5120, 5120, h800)
        assert h.seconds < a100.seconds
