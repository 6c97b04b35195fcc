"""Tests for the chunked storage manager (§4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError, ConfigError, DeviceFault, StateError
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import FaultPolicy, ManifestJournal, StorageArray, StorageManager
from repro.storage import manager as manager_module

CHUNK_BYTES = 64 * 32 * 4  # one 64-row chunk of width-32 fp32 rows
#: The runs the ``manager`` fixture's context declares.
RUNS = tuple((layer, kind) for kind in ("hidden", "kv") for layer in range(4))


def rows(n: int, width: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, width)).astype(np.float32)


@pytest.fixture
def manager(storage_manager):
    storage_manager.register_context("ctx", n_layers=4, hidden_width=32, runs=RUNS)
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
        with pytest.raises(StateError):
            manager.append("ctx", 9, rows(4, 32))

    def test_empty_layer_loads_empty(self, manager):
        manager.append("ctx", 0, rows(4, 32))
        assert manager.load_layer("ctx", 1).shape == (0, 32)


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
        manager.register_context("ctx", n_layers=2, hidden_width=8, runs=[(0, "hidden")])
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


def one_device_manager(**kwargs) -> StorageManager:
    spec = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
                   capacity_bytes=1 * GB)
    manager = StorageManager(StorageArray([spec], link_bandwidth=8 * GB), **kwargs)
    manager.register_context("ctx", n_layers=1, hidden_width=32, runs=[(0, "hidden")])
    return manager


class TestRowsCountOnlyOnceLanded:
    def test_failed_chunk_write_stores_only_the_landed_chunks(self):
        manager = one_device_manager()
        manager.array.devices[0].fault_policy = FaultPolicy(fail_writes=[2])
        data = rows(192, 32, seed=7)
        with pytest.raises(DeviceFault):
            manager.append("ctx", 0, data)
        assert manager.tokens_stored("ctx", 0) == 64
        assert np.array_equal(manager.load_layer("ctx", 0), data[:64])
        assert manager.allocated_bytes == CHUNK_BYTES
        # A retry of the rows that never landed continues from chunk 1.
        manager.append("ctx", 0, data[64:])
        assert manager.tokens_stored("ctx", 0) == 192
        assert np.array_equal(manager.load_layer("ctx", 0), data)
        assert manager.allocated_bytes == 3 * CHUNK_BYTES

    def test_refused_append_changes_nothing(self):
        manager = one_device_manager(capacity_bytes=CHUNK_BYTES)
        data = rows(10, 32)
        manager.append("ctx", 0, data)
        with pytest.raises(AllocationError):
            manager.append("ctx", 0, rows(100, 32, seed=1))
        assert manager.tokens_stored("ctx", 0) == 10
        assert manager.allocated_bytes == CHUNK_BYTES
        assert manager.array.total_used_bytes == 0
        assert np.array_equal(manager.load_layer("ctx", 0), data)

    def test_free_returns_the_counted_bytes(self):
        manager = one_device_manager()
        manager.append("ctx", 0, rows(65, 32))
        assert manager.allocated_bytes == 2 * CHUNK_BYTES
        assert manager.free_context("ctx") == 2 * CHUNK_BYTES
        assert manager.allocated_bytes == 0


class TestByteAccounting:
    """One byte counter against capacity: a whole chunk per chunk started."""

    def test_chunks_allocate_lazily(self):
        manager = one_device_manager()
        for n, chunks in ((60, 1), (4, 1), (1, 2)):
            manager.append("ctx", 0, rows(n, 32, seed=n))
            assert manager.allocated_bytes == chunks * CHUNK_BYTES

    def test_capacity_is_shared_by_every_run(self):
        manager = one_device_manager(capacity_bytes=2 * CHUNK_BYTES)
        manager.register_context("other", n_layers=1, hidden_width=32, runs=[(0, "hidden")])
        manager.append("ctx", 0, rows(64, 32))
        manager.append("other", 0, rows(1, 32))
        with pytest.raises(AllocationError):
            manager.append("ctx", 0, rows(1, 32))
        manager.free_context("other")
        assert manager.allocated_bytes == CHUNK_BYTES
        manager.append("ctx", 0, rows(1, 32))
        assert manager.tokens_stored("ctx", 0) == 65

    def test_append_bytes_is_what_appending_to_every_run_allocates(self, storage_manager):
        storage_manager.register_context("r", 4, 32, runs=[(1, "kv"), (2, "hidden")])
        for n in (1, 62, 1, 64, 130, 0):
            before, need = storage_manager.allocated_bytes, storage_manager.append_bytes("r", n)
            storage_manager.append("r", 1, rows(n, 64, seed=n), kind="kv")
            storage_manager.append("r", 2, rows(n, 32, seed=n))
            assert storage_manager.allocated_bytes - before == need

    def test_fragmentation_bounded_by_one_chunk_per_run(self, manager):
        for layer, n in enumerate((1, 63, 64, 130)):
            manager.append("ctx", layer, rows(n, 32))
        used = manager.per_token_bytes("ctx") * 130
        assert 0 <= manager.context_bytes("ctx") - used < 4 * CHUNK_BYTES

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(AllocationError):
            one_device_manager(capacity_bytes=0)


class TestRuns:
    def test_runs_named_at_registration_open_empty(self, storage_manager):
        storage_manager.register_context("r", 4, 32, runs=[(1, "kv"), (2, "hidden")])
        assert storage_manager.runs("r") == ((1, "kv"), (2, "hidden"))
        assert storage_manager.tokens_stored("r", 1, "kv") == 0
        storage_manager.append("r", 1, rows(3, 64), kind="kv")
        assert storage_manager.tokens_stored("r", 1, "kv") == 3

    @pytest.mark.parametrize("run", [(4, "hidden"), (0, "logits")], ids=["layer", "kind"])
    def test_registration_validates_run_layer_and_kind(self, storage_manager, run):
        with pytest.raises(ConfigError):
            storage_manager.register_context("r", 4, 32, runs=[(0, "hidden"), run])
        assert not storage_manager.has_context("r")

    def test_rejected_block_opens_no_run(self, manager):
        with pytest.raises(ConfigError):
            manager.append("ctx", 0, rows(4, 16))
        assert manager.runs("ctx") == RUNS
        assert manager.tokens_stored("ctx", 0) == 0


class TestChecksumsOnlyWithAJournal:
    @pytest.fixture
    def crc_calls(self, monkeypatch):
        calls = []
        real = manager_module._payload_crc

        def spy(payload):
            calls.append(payload.shape)
            return real(payload)

        monkeypatch.setattr(manager_module, "_payload_crc", spy)
        return calls

    @staticmethod
    def save_and_seal(manager):
        manager.append("ctx", 0, rows(100, 32))
        manager.seal_context("ctx")
        manager.append("ctx", 0, rows(1, 32, seed=1))
        manager.seal_context("ctx")

    def test_no_crc_without_a_journal(self, crc_calls):
        self.save_and_seal(one_device_manager())
        assert crc_calls == []

    def test_journaled_chunks_and_seals_carry_crcs(self, crc_calls, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            self.save_and_seal(one_device_manager(journal=journal))
        assert crc_calls == [(64, 32), (36, 32), (37, 32)]
