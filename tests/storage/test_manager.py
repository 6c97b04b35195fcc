"""Tests for the chunked storage manager (§4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, StateError


def rows(n: int, width: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, width)).astype(np.float32)


@pytest.fixture
def manager(storage_manager):
    storage_manager.register_context("ctx", n_layers=4, hidden_width=32)
    return storage_manager


class TestRegistration:
    def test_double_register_rejected(self, manager):
        with pytest.raises(StateError):
            manager.register_context("ctx", n_layers=4, hidden_width=32)

    def test_unknown_context_rejected(self, manager):
        with pytest.raises(StateError):
            manager.meta("ghost")

    def test_kv_width_is_double(self, manager):
        assert manager.meta("ctx").kv_width == 64

    def test_invalid_shape_rejected(self, manager):
        with pytest.raises(ConfigError):
            manager.register_context("bad", n_layers=0, hidden_width=32)


class TestSaveLoadRoundtrip:
    def test_single_append_roundtrip(self, manager):
        data = rows(10, 32)
        manager.append("ctx", 0, data)
        out = manager.load_layer("ctx", 0)
        assert np.array_equal(out, data)

    def test_multi_append_order_preserved(self, manager):
        """Layer-before-token saving, token-before-layer loading."""
        blocks = [rows(n, 32, seed=n) for n in (10, 64, 3, 130)]
        for block in blocks:
            manager.append("ctx", 1, block)
        out = manager.load_layer("ctx", 1)
        assert np.array_equal(out, np.concatenate(blocks, axis=0))

    def test_roundtrip_across_chunk_boundary(self, manager):
        data = rows(64 * 3 + 1, 32)
        manager.append("ctx", 0, data)
        assert np.array_equal(manager.load_layer("ctx", 0), data)

    def test_kv_kind_roundtrip(self, manager):
        data = rows(20, 64, seed=5)
        manager.append("ctx", 2, data, kind="kv")
        assert np.array_equal(manager.load_layer("ctx", 2, kind="kv"), data)

    def test_layers_independent(self, manager):
        a, b = rows(5, 32, 1), rows(9, 32, 2)
        manager.append("ctx", 0, a)
        manager.append("ctx", 3, b)
        assert np.array_equal(manager.load_layer("ctx", 0), a)
        assert np.array_equal(manager.load_layer("ctx", 3), b)

    def test_tokens_stored(self, manager):
        manager.append("ctx", 0, rows(70, 32))
        assert manager.tokens_stored("ctx", 0) == 70
        assert manager.tokens_stored("ctx", 1) == 0

    def test_wrong_width_rejected(self, manager):
        with pytest.raises(ConfigError):
            manager.append("ctx", 0, rows(4, 16))

    def test_out_of_range_layer_rejected(self, manager):
        with pytest.raises(ConfigError):
            manager.append("ctx", 9, rows(4, 32))

    def test_empty_layer_loads_empty(self, manager):
        manager.append("ctx", 0, rows(4, 32))
        with pytest.raises(StateError):
            manager.allocator.run("ctx", 1, "hidden")


class TestHotPathBuffers:
    def test_single_row_appends_roundtrip(self, manager):
        """The decode saving pattern: one row per append, O(1) each."""
        blocks = [rows(1, 32, seed=i) for i in range(130)]
        for block in blocks:
            manager.append("ctx", 0, block)
        out = manager.load_layer("ctx", 0)
        assert np.array_equal(out, np.concatenate(blocks, axis=0))

    def test_large_block_bypasses_staging(self, manager):
        """Aligned full chunks flush straight from the input block."""
        data = rows(64 * 5 + 3, 32, seed=3)
        manager.append("ctx", 0, data)
        assert np.array_equal(manager.load_layer("ctx", 0), data)
        assert manager.array.total_used_bytes == 5 * 64 * 32 * 4

    def test_unaligned_then_aligned_blocks(self, manager):
        blocks = [rows(n, 32, seed=n) for n in (10, 64, 64 * 2 + 5, 49, 64)]
        for block in blocks:
            manager.append("ctx", 2, block)
        out = manager.load_layer("ctx", 2)
        assert np.array_equal(out, np.concatenate(blocks, axis=0))

    def test_load_layer_into_preallocated_out(self, manager):
        data = rows(100, 32, seed=4)
        manager.append("ctx", 0, data)
        dest = np.empty((100, 32), dtype=np.float32)
        returned = manager.load_layer("ctx", 0, out=dest)
        assert returned is dest
        assert np.array_equal(dest, data)

    def test_load_layer_bad_out_rejected(self, manager):
        manager.append("ctx", 0, rows(10, 32))
        with pytest.raises(ConfigError):
            manager.load_layer("ctx", 0, out=np.empty((9, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            manager.load_layer("ctx", 0, out=np.empty((10, 32), dtype=np.float64))

    def test_seal_single_row_growth_reseal(self, manager):
        """Partial tail chunks grow one row at a time across seals."""
        pieces = []
        for i in range(70):
            piece = rows(1, 32, seed=1000 + i)
            pieces.append(piece)
            manager.append("ctx", 1, piece)
            if i % 7 == 0:
                manager.seal_context("ctx")
        manager.seal_context("ctx")
        out = manager.load_layer("ctx", 1)
        assert np.array_equal(out, np.concatenate(pieces, axis=0))


class TestSealLifecycle:
    def test_seal_then_load(self, manager):
        data = rows(30, 32)
        manager.append("ctx", 0, data)
        manager.seal_context("ctx")
        assert np.array_equal(manager.load_layer("ctx", 0), data)

    def test_seal_append_seal_roundtrip(self, manager):
        """Multi-round lifecycle: partial chunks grow across rounds."""
        first, second = rows(30, 32, 1), rows(50, 32, 2)
        manager.append("ctx", 0, first)
        manager.seal_context("ctx")
        manager.append("ctx", 0, second)
        manager.seal_context("ctx")
        out = manager.load_layer("ctx", 0)
        assert np.array_equal(out, np.concatenate([first, second]))

    def test_double_seal_idempotent(self, manager):
        manager.append("ctx", 0, rows(10, 32))
        manager.seal_context("ctx")
        manager.seal_context("ctx")
        assert manager.tokens_stored("ctx", 0) == 10

    def test_seal_at_chunk_boundary(self, manager):
        data = rows(64, 32)
        manager.append("ctx", 0, data)
        manager.seal_context("ctx")
        assert np.array_equal(manager.load_layer("ctx", 0), data)

    def test_device_bytes_appear_after_flush(self, manager):
        manager.append("ctx", 0, rows(64 * 2, 32))
        assert manager.array.total_used_bytes > 0


class TestFreeContext:
    def test_free_clears_devices_and_meta(self, manager):
        manager.append("ctx", 0, rows(200, 32))
        manager.seal_context("ctx")
        freed = manager.free_context("ctx")
        assert freed > 0
        assert not manager.has_context("ctx")
        assert manager.array.total_used_bytes == 0

    def test_free_then_reregister(self, manager):
        manager.append("ctx", 0, rows(10, 32))
        manager.free_context("ctx")
        manager.register_context("ctx", n_layers=2, hidden_width=8)
        manager.append("ctx", 0, rows(4, 8))
        assert manager.tokens_stored("ctx", 0) == 4

    def test_free_unknown_rejected(self, manager):
        with pytest.raises(StateError):
            manager.free_context("ghost")

    def test_free_context_with_no_runs(self, manager):
        """Pure-recompute schemes never store state; sessions can also
        close before their first save — freeing must still work."""
        assert manager.free_context("ctx") == 0
        assert not manager.has_context("ctx")


class TestAccounting:
    def test_per_token_bytes_hidden_only(self, manager):
        for layer in range(4):
            manager.append("ctx", layer, rows(100, 32))
        per_token = manager.per_token_bytes("ctx")
        assert per_token == pytest.approx(4 * 32 * 4)  # layers * width * fp32

    def test_per_token_bytes_mixed_kinds(self, manager):
        for layer in range(3):
            manager.append("ctx", layer, rows(100, 32))
        manager.append("ctx", 3, rows(100, 64), kind="kv")
        per_token = manager.per_token_bytes("ctx")
        assert per_token == pytest.approx((3 * 32 + 64) * 4)

    def test_context_bytes_positive(self, manager):
        manager.append("ctx", 0, rows(64, 32))
        assert manager.context_bytes("ctx") > 0

    def test_balance_across_devices(self, manager):
        """Round-robin striping balances device bytes (many chunks)."""
        for layer in range(4):
            manager.append("ctx", layer, rows(64 * 8, 32, seed=layer))
        used = manager.array.used_bytes_per_device
        assert max(used) - min(used) <= 64 * 32 * 4
