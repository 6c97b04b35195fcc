"""Kill-and-recover tests for the journaled storage manager.

Every test follows the same shape: mutate a journaled manager, "crash" it
(stop using it — the devices and the journal directory survive, exactly
what a real crash leaves behind), then :meth:`StorageManager.recover` a
fresh manager over the same array + journal and check what it knows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RecoveryError, StateError
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import journal as journal_module
from repro.storage import (
    ChunkKey,
    ManifestJournal,
    StorageArray,
    StorageManager,
)

CPC = 64  # the default chunk size the tests reason in


class Crash(Exception):
    """The simulated death of the process mid-operation."""


def rows(n: int, width: int = 32, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, width)).astype(np.float32)


def small_array(replication: int = 1) -> StorageArray:
    spec = SSDSpec("test-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
                   capacity_bytes=1 * GB)
    return StorageArray([spec, spec], link_bandwidth=8 * GB, replication=replication)


@pytest.fixture
def stack(tmp_path):
    """(array, manager) with an attached journal; closes journals at exit."""
    array = small_array()
    journals = []

    def new_journal():
        journal = ManifestJournal(tmp_path)
        journals.append(journal)
        return journal

    manager = StorageManager(array, journal=new_journal())
    yield array, manager, new_journal
    for journal in journals:
        journal.close()


def recover(array, new_journal, **kwargs):
    return StorageManager.recover(array, new_journal(), **kwargs)


class TestCleanRecovery:
    def test_sealed_state_roundtrips_bit_exact(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=2, hidden_width=32)
        data = {layer: rows(130, seed=layer) for layer in range(2)}
        for layer, block in data.items():
            manager.append("ctx", layer, block)
        manager.journal_tokens("ctx", list(range(130)))
        manager.seal_context("ctx")

        recovered = recover(array, new_journal)
        assert recovered.context_ids() == ("ctx",)
        assert recovered.token_log("ctx") == tuple(range(130))
        for layer, block in data.items():
            assert recovered.tokens_stored("ctx", layer) == 130
            assert np.array_equal(recovered.load_layer("ctx", layer), block)

    def test_chunk_aligned_state_roundtrips(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(CPC * 2)
        manager.journal_tokens("ctx", list(range(CPC * 2)))
        manager.append("ctx", 0, block)
        # No seal needed: both chunks flushed at append time.
        recovered = recover(array, new_journal)
        assert np.array_equal(recovered.load_layer("ctx", 0), block)

    def test_kv_kind_recovers(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(70, width=64, seed=3)
        manager.journal_tokens("ctx", list(range(70)))
        manager.append("ctx", 0, block, kind="kv")
        manager.seal_context("ctx")
        recovered = recover(array, new_journal)
        assert np.array_equal(recovered.load_layer("ctx", 0, kind="kv"), block)

    def test_freed_context_stays_freed(self, stack):
        array, manager, new_journal = stack
        manager.register_context("gone", n_layers=1, hidden_width=32)
        manager.append("gone", 0, rows(70))
        manager.seal_context("gone")
        manager.free_context("gone")
        manager.register_context("kept", n_layers=1, hidden_width=32)
        manager.journal_tokens("kept", [1, 2, 3])
        recovered = recover(array, new_journal)
        assert recovered.context_ids() == ("kept",)
        assert recovered.token_log("kept") == (1, 2, 3)

    def test_registered_but_stateless_context_survives(self, stack):
        array, manager, new_journal = stack
        manager.register_context("idle", n_layers=3, hidden_width=16)
        recovered = recover(array, new_journal)
        meta = recovered.meta("idle")
        assert (meta.n_layers, meta.hidden_width, meta.kv_width) == (3, 16, 32)
        assert recovered.token_log("idle") == ()

    def test_recovery_is_idempotent(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(100)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, block)
        manager.seal_context("ctx")
        recover(array, new_journal)
        recovered = recover(array, new_journal)
        assert np.array_equal(recovered.load_layer("ctx", 0), block)

    def test_appends_continue_after_recovery(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        first = rows(100, seed=1)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, first)
        manager.seal_context("ctx")

        recovered = recover(array, new_journal)
        second = rows(60, seed=2)
        recovered.journal_tokens("ctx", list(range(100, 160)))
        recovered.append("ctx", 0, second)
        recovered.seal_context("ctx")
        assert np.array_equal(
            recovered.load_layer("ctx", 0), np.concatenate([first, second])
        )
        # ... and that grown state survives yet another crash.
        again = recover(array, new_journal)
        assert np.array_equal(
            again.load_layer("ctx", 0), np.concatenate([first, second])
        )


class TestCrashWindows:
    def test_unsealed_tail_rolls_back_to_chunk_boundary(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(100)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, block)  # 64 flushed, 36 unsealed in host RAM

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == CPC
        assert recovered.token_log("ctx") == tuple(range(CPC))
        assert np.array_equal(recovered.load_layer("ctx", 0), block[:CPC])

    def test_orphan_device_chunk_is_swept_not_counted(self, stack):
        """Satellite (a): a crash between device write and journal append
        leaves an unjournaled chunk; replaying must not double-count it."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        manager.journal_tokens("ctx", list(range(CPC)))
        manager.append("ctx", 0, rows(CPC))
        # Simulate the torn second flush: the device write landed, the
        # journal record never did.
        orphan = ChunkKey("ctx", 0, 1, "hidden")
        array.device_for(1, offset=0).write(orphan, rows(CPC, seed=9))

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == CPC
        assert orphan not in array.device_for(1, offset=0)
        # The swept slot is reusable: the run grows straight through it.
        recovered.journal_tokens("ctx", list(range(CPC, 2 * CPC)))
        grow = rows(CPC, seed=10)
        recovered.append("ctx", 0, grow)
        assert np.array_equal(recovered.load_layer("ctx", 0)[CPC:], grow)

    def test_retired_partial_never_rewritten_rolls_back(self, stack):
        """The write-once rewrite window: seal, grow, crash after the stale
        partial was deleted but before its replacement was written."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(100)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, block)
        manager.seal_context("ctx")  # 36-row partial persisted at index 1
        array.device_for(1, offset=0).delete(ChunkKey("ctx", 0, 1, "hidden"))

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == CPC
        assert np.array_equal(recovered.load_layer("ctx", 0), block[:CPC])

    def test_grown_sealed_partial_stays_durable_until_rewrite(self, stack):
        """Appends growing a sealed partial keep its stale device copy: a
        crash before the refilled chunk lands loses only the new rows."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(100)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, block)
        manager.seal_context("ctx")
        # Grow the sealed 36-row tail by 10 rows without refilling it.
        manager.journal_tokens("ctx", list(range(100, 110)))
        manager.append("ctx", 0, rows(10, seed=4))

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == 100
        assert np.array_equal(recovered.load_layer("ctx", 0), block)

    def test_grown_partial_survives_compaction_then_crash(self, stack):
        """The stale-partial bookkeeping must flow through a compacted
        snapshot, not just the incremental log."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(100)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, block)
        manager.seal_context("ctx")
        manager.journal_tokens("ctx", list(range(100, 110)))
        manager.append("ctx", 0, rows(10, seed=4))
        manager.compact_journal()

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == 100
        assert np.array_equal(recovered.load_layer("ctx", 0), block)

    def test_refilled_partial_after_crash_counts_once(self, stack):
        """Satellite (a) again, at the seal boundary: grow a sealed partial
        until it refills (delete + rewrite + journal), crash, recover —
        exactly one copy of those rows, no double count."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        first = rows(100, seed=1)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, first)
        manager.seal_context("ctx")
        fill = rows(CPC, seed=2)  # 36 -> refills chunk 1, 36 spill to chunk 2's tail
        manager.journal_tokens("ctx", list(range(100, 100 + CPC)))
        manager.append("ctx", 0, fill)

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == 2 * CPC
        expected = np.concatenate([first, fill])[: 2 * CPC]
        assert np.array_equal(recovered.load_layer("ctx", 0), expected)

    @staticmethod
    def crash_before(manager, op):
        """Make the manager die just before it journals an ``op`` record:
        the device writes ahead of that record have landed."""
        real = manager.journal.append

        def append(record):
            if record["op"] == op:
                raise Crash(op)
            real(record)

        manager.journal.append = append

    def test_refill_that_lands_without_its_record_keeps_the_sealed_rows(self, stack):
        """A crash inside the refill of a sealed partial, after the full
        chunk replaced the sealed copy in its slot but before its record:
        the slot holds an orphan whose prefix is the journaled tail."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        block = rows(2 * CPC)
        manager.journal_tokens("ctx", list(range(2 * CPC)))
        manager.append("ctx", 0, block[:100])
        manager.seal_context("ctx")
        self.crash_before(manager, "chunk")
        with pytest.raises(Crash):
            manager.append("ctx", 0, block[100:])

        recovered = recover(array, new_journal)
        assert recovered.tokens_stored("ctx", 0) == 100
        assert np.array_equal(recovered.load_layer("ctx", 0), block[:100])
        # The orphan is swept; the next seal puts the tail back.
        assert ChunkKey("ctx", 0, 1, "hidden") not in array.device_for(1, offset=0)
        recovered.seal_context("ctx")
        again = recover(array, new_journal)
        assert np.array_equal(again.load_layer("ctx", 0), block[:100])

    def test_reseal_that_lands_without_its_record_keeps_the_sealed_rows(self, stack):
        """A crash inside a seal that rewrote grown tails in their slots
        but never appended its record: each run keeps its journaled tail."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=2, hidden_width=32)
        manager.journal_tokens("ctx", list(range(110)))
        for layer in (0, 1):
            manager.append("ctx", layer, rows(100, seed=layer))
        manager.seal_context("ctx")
        for layer in (0, 1):
            manager.append("ctx", layer, rows(10, seed=layer + 2))
        self.crash_before(manager, "seal")
        with pytest.raises(Crash):
            manager.seal_context("ctx")

        recovered = recover(array, new_journal)
        assert recovered.token_log("ctx") == tuple(range(100))
        for layer in (0, 1):
            assert np.array_equal(recovered.load_layer("ctx", layer), rows(100, seed=layer))

    def test_uneven_runs_truncate_to_common_prefix(self, stack):
        """One layer sealed further along than another: the context rolls
        back to the shortest run's durable rows, salvaging boundary-chunk
        prefixes into the host tail."""
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=2, hidden_width=32)
        long_block = rows(2 * CPC, seed=0)
        manager.journal_tokens("ctx", list(range(2 * CPC)))
        manager.append("ctx", 0, long_block)  # two full chunks durable
        manager.append("ctx", 1, long_block[:100])  # 64 durable + 36 unsealed

        recovered = recover(array, new_journal)
        for layer in range(2):
            assert recovered.tokens_stored("ctx", layer) == CPC
            assert np.array_equal(
                recovered.load_layer("ctx", layer), long_block[:CPC]
            )
        assert recovered.token_log("ctx") == tuple(range(CPC))


class TestLargeStores:
    def test_store_larger_than_one_frame_reopens_after_compaction(
        self, stack, monkeypatch
    ):
        """A snapshot is one frame per record, so its size is not bounded
        by the frame limit: a store whose snapshot outgrows one frame
        still reopens and recovers whole."""
        monkeypatch.setattr(journal_module, "MAX_RECORD_BYTES", 1 << 16)
        array, manager, new_journal = stack
        for n in range(40):
            cid = f"ctx{n}"
            manager.register_context(cid, n_layers=1, hidden_width=4)
            manager.journal_tokens(cid, range(10_000 * n, 10_000 * n + 512))
            manager.append(cid, 0, rows(512, width=4, seed=n))
        manager.compact_journal()
        manager.journal.close()

        recovered = recover(array, new_journal)
        assert len(recovered.context_ids()) == 40
        for n in range(40):
            cid = f"ctx{n}"
            assert recovered.token_log(cid) == tuple(range(10_000 * n, 10_000 * n + 512))
            assert np.array_equal(recovered.load_layer(cid, 0), rows(512, width=4, seed=n))

    def test_long_token_log_spans_several_snapshot_records(self, stack, monkeypatch):
        """A log journaled block by block is split again at compaction, so
        no ``tokens`` record of a snapshot outgrows a frame."""
        monkeypatch.setattr(journal_module, "MAX_RECORD_BYTES", 1 << 16)
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=4)
        for start in range(0, 40 * 512, 512):
            manager.journal_tokens("ctx", range(10_000 + start, 10_000 + start + 512))
        manager.append("ctx", 0, rows(40 * 512, width=4))
        manager.compact_journal()
        manager.journal.close()

        recovered = recover(array, new_journal)
        assert recovered.token_log("ctx") == tuple(range(10_000, 10_000 + 40 * 512))
        assert np.array_equal(recovered.load_layer("ctx", 0), rows(40 * 512, width=4))


class TestLoudFailures:
    def test_missing_journaled_chunk_raises(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        manager.journal_tokens("ctx", list(range(CPC)))
        manager.append("ctx", 0, rows(CPC))
        array.device_for(0, offset=0).delete(ChunkKey("ctx", 0, 0, "hidden"))
        with pytest.raises(RecoveryError, match="missing"):
            recover(array, new_journal)

    def test_corrupted_chunk_payload_raises(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        manager.journal_tokens("ctx", list(range(CPC)))
        manager.append("ctx", 0, rows(CPC))
        device = array.device_for(0, offset=0)
        key = ChunkKey("ctx", 0, 0, "hidden")
        device.delete(key)
        device.write(key, rows(CPC, seed=666))
        with pytest.raises(RecoveryError, match="checksum"):
            recover(array, new_journal)

    def test_token_log_shorter_than_durable_rows_raises(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        # State rows appended without their token ids ever being journaled
        # — the discipline violation recovery must refuse to paper over.
        manager.append("ctx", 0, rows(CPC))
        with pytest.raises(RecoveryError, match="token log"):
            recover(array, new_journal)

    def test_corrupted_sealed_tail_raises(self, stack):
        array, manager, new_journal = stack
        manager.register_context("ctx", n_layers=1, hidden_width=32)
        manager.journal_tokens("ctx", list(range(100)))
        manager.append("ctx", 0, rows(100))
        manager.seal_context("ctx")  # 36-row partial at index 1
        device = array.device_for(1, offset=0)
        key = ChunkKey("ctx", 0, 1, "hidden")
        device.delete(key)
        device.write(key, rows(36, seed=666))
        with pytest.raises(RecoveryError, match="sealed tail"):
            recover(array, new_journal)

    @staticmethod
    def crafted(tmp_path, *records):
        """Recover a fresh array from a journal holding exactly ``records``."""
        with ManifestJournal(tmp_path) as journal:
            for record in records:
                journal.append(record)
        with ManifestJournal(tmp_path) as journal:
            return StorageManager.recover(small_array(), journal)

    REGISTER = {"op": "register", "context_id": "ctx", "n_layers": 2, "hidden_width": 32,
                "kv_width": 64, "dtype": "float32", "runs": [[0, "hidden"]]}

    def test_layer_beyond_the_context_raises(self, tmp_path):
        run = {"op": "run", "context_id": "ctx", "layer": 2, "kind": "hidden"}
        with pytest.raises(RecoveryError, match="layer 2"):
            self.crafted(tmp_path, self.REGISTER, run)

    def test_seal_off_the_chunk_boundary_raises(self, tmp_path):
        seal = {"op": "seal", "context_id": "ctx",
                "tails": [{"layer": 0, "kind": "hidden", "index": 2, "tokens": 5, "crc": 0}]}
        with pytest.raises(RecoveryError, match="sealed tail at chunk 2"):
            self.crafted(tmp_path, self.REGISTER, seal)

    def test_unknown_dtype_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="unknown dtype"):
            self.crafted(tmp_path, dict(self.REGISTER, dtype="float99"))

    def test_unjournaled_manager_rejects_compaction(self):
        manager = StorageManager(small_array())
        with pytest.raises(StateError):
            manager.compact_journal()
