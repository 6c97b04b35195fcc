"""Tests for the write-ahead manifest journal (crash-safe metadata).

The journal frames records and gives them no meaning; what they mean is
the storage manager's fold (``StorageManager._apply``), so every state
below is a fold of records into a fresh manager.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.errors import JournalCorruptError, StateError
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import ManifestJournal, StorageArray, StorageManager


RECORDS = [
    {"op": "register", "context_id": "a", "n_layers": 2, "hidden_width": 8, "kv_width": 16,
     "dtype": "float32", "runs": [[0, "hidden"]]},
    {"op": "tokens", "context_id": "a", "ids": [1, 2, 3]},
    {"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden", "index": 0, "crc": 99},
    {"op": "seal", "context_id": "a",
     "tails": [{"layer": 0, "kind": "hidden", "index": 1, "tokens": 5, "crc": 7}]},
    {"op": "register", "context_id": "b", "n_layers": 2, "hidden_width": 8, "kv_width": 4,
     "dtype": "float32", "runs": []},
    {"op": "tokens", "context_id": "b", "ids": [9]},
    {"op": "free", "context_id": "a"},
]


def fold(records) -> StorageManager:
    spec = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
                   capacity_bytes=1 * GB)
    manager = StorageManager(StorageArray([spec], link_bandwidth=8 * GB))
    for record in records:
        manager._apply(record)
    return manager


def shape(manager: StorageManager) -> dict:
    """Each context's meta, token log and runs as what the journal proves:
    ``(n_tokens, device_tail_rows, crcs)``."""
    return {
        cid: (
            ctx.meta,
            tuple(ctx.tokens),
            {
                run_key: (run.n_tokens, run.device_tail_rows, dict(run.crcs))
                for run_key, run in ctx.runs.items()
            },
        )
        for cid, ctx in manager._contexts.items()
    }


def states_equal(a: StorageManager, b: StorageManager) -> bool:
    return shape(a) == shape(b)


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            replayed = journal.replay()
        assert states_equal(fold(replayed), fold(RECORDS))

    def test_replay_survives_reopen(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
        with ManifestJournal(tmp_path) as journal:
            assert states_equal(fold(journal.replay()), fold(RECORDS))

    def test_empty_journal_replays_empty(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            assert journal.replay() == []

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = ManifestJournal(tmp_path)
        journal.close()
        with pytest.raises(StateError):
            journal.append(RECORDS[0])


class TestTruncationProperty:
    def test_every_byte_truncation_is_prefix_or_loud(self, tmp_path):
        """Satellite (c): a journal cut at ANY byte offset replays to a
        strict prefix of the committed records — never silently wrong
        metadata.  Pure truncation of an append-only file can never
        fabricate a complete-but-corrupt frame, so it never raises."""
        with ManifestJournal(tmp_path / "full") as journal:
            boundaries = [0]
            for record in RECORDS:
                journal.append(record)
                boundaries.append(journal.journal_bytes)
            data = journal.journal_path.read_bytes()
        assert boundaries[-1] == len(data)
        for offset in range(len(data) + 1):
            directory = tmp_path / f"cut{offset}"
            with ManifestJournal(directory) as journal:
                journal.journal_path.write_bytes(data[:offset])
                replayed = journal.replay()
                # Committed prefix: every record whose frame fits the cut.
                n_whole = sum(1 for b in boundaries[1:] if b <= offset)
                assert states_equal(fold(replayed), fold(RECORDS[:n_whole])), offset
                # The torn tail was physically truncated to the clean prefix.
                assert journal.journal_bytes == boundaries[n_whole]

    def test_truncated_tail_can_be_extended(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS[:2]:
                journal.append(record)
            cut = journal.journal_bytes - 3
            data = journal.journal_path.read_bytes()
        with ManifestJournal(tmp_path) as journal:
            journal.journal_path.write_bytes(data[:cut])
            journal.replay()
            journal.append(RECORDS[2])
            assert states_equal(fold(journal.replay()), fold(RECORDS[:1] + [RECORDS[2]]))

    def test_midfile_bitflip_raises(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            data = bytearray(journal.journal_path.read_bytes())
            data[12] ^= 0x40  # inside the first record's payload
            journal.journal_path.write_bytes(bytes(data))
            with pytest.raises(JournalCorruptError):
                journal.replay()

    def test_absurd_length_field_raises(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            journal.append(RECORDS[0])
            journal.journal_path.write_bytes(b"\xff\xff\xff\x7f" + b"\x00" * 64)
            with pytest.raises(JournalCorruptError):
                journal.replay()


class TestCompaction:
    def test_compaction_preserves_state(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.compact(journal.replay())
            assert journal.journal_bytes == 0
            assert states_equal(fold(journal.replay()), fold(RECORDS))

    def test_records_after_compaction_extend_snapshot(self, tmp_path):
        extra = {"op": "tokens", "context_id": "b", "ids": [5, 6]}
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.compact(journal.replay())
            journal.append(extra)
        with ManifestJournal(tmp_path) as journal:
            assert states_equal(fold(journal.replay()), fold(RECORDS + [extra]))

    def test_generation_advances_and_stale_logs_removed(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            old_log = journal.journal_path
            journal.append(RECORDS[0])
            journal.compact(journal.replay())
            assert journal.generation == 1
            assert not old_log.exists()

    def test_crash_window_old_snapshot_old_log(self, tmp_path):
        """A crash *before* the snapshot rename: replay must see the old
        snapshot + old log — the new empty log must not shadow it."""
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            # Simulate compaction dying after creating the next-gen log but
            # before the snapshot rename commits.
            (tmp_path / "manifest.00000001.journal").touch()
        with ManifestJournal(tmp_path) as journal:
            assert journal.generation == 0
            assert states_equal(fold(journal.replay()), fold(RECORDS))

    def test_crash_window_new_snapshot_ignores_old_log(self, tmp_path):
        """A crash *after* the rename but before stale-log deletion: the
        snapshot names the new generation, so the old log's records are
        not double-applied."""
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            old_log = journal.journal_path
            journal.compact(journal.replay())
            # Resurrect the old log as a crash would have left it.
            with open(old_log, "wb") as fh:
                fh.write(b"")
        with ManifestJournal(tmp_path) as journal:
            assert journal.generation == 1
            assert states_equal(fold(journal.replay()), fold(RECORDS))

    def test_snapshot_corruption_is_loud(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            journal.append(RECORDS[0])
            journal.compact(journal.replay())
        snapshot = tmp_path / ManifestJournal.SNAPSHOT_NAME
        data = bytearray(snapshot.read_bytes())
        data[10] ^= 0x01
        snapshot.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            ManifestJournal(tmp_path)

    def test_snapshot_is_a_header_then_one_frame_per_record(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.compact(journal.replay())
            snapshot = journal._read_snapshot()
        assert snapshot == (1, RECORDS)

    def test_one_frame_snapshot_of_the_old_format_is_refused(self, tmp_path):
        """Snapshots once held the whole state as one nested-JSON frame.
        No reader for it is kept, and it must not replay as an empty
        store: it names no record count, so it is corrupt."""
        state = {"contexts": {"a": {
            "n_layers": 2, "hidden_width": 8, "kv_width": 16, "dtype": "float32",
            "tokens": [1, 2, 3], "runs": {},
        }}}
        payload = json.dumps({"generation": 1, "state": state}).encode()
        (tmp_path / ManifestJournal.SNAPSHOT_NAME).write_bytes(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(JournalCorruptError, match="record count"):
            ManifestJournal(tmp_path)

    def test_snapshot_missing_a_record_is_refused(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.compact(journal.replay())
        snapshot = tmp_path / ManifestJournal.SNAPSHOT_NAME
        data = snapshot.read_bytes()
        last = data.rindex(json.dumps(RECORDS[-1], separators=(",", ":")).encode())
        snapshot.write_bytes(data[: last - 8])
        with pytest.raises(JournalCorruptError, match="promises"):
            ManifestJournal(tmp_path)


class TestRecordSemantics:
    def test_duplicate_register_is_corrupt(self):
        state = fold(RECORDS[:1])
        with pytest.raises(JournalCorruptError):
            state._apply(RECORDS[0])

    def test_unknown_context_is_corrupt(self):
        with pytest.raises(JournalCorruptError):
            fold([{"op": "tokens", "context_id": "ghost", "ids": [1]}])

    def test_unknown_op_is_corrupt(self):
        with pytest.raises(JournalCorruptError):
            fold([{"op": "frobnicate"}])

    def test_malformed_record_is_corrupt(self):
        with pytest.raises(JournalCorruptError):
            fold([RECORDS[0], {"op": "chunk", "context_id": "a", "layer": 0}])

    def test_full_chunk_supersedes_sealed_tail(self):
        state = fold(RECORDS[:4])
        run = state._contexts["a"].runs[(0, "hidden")]
        assert (run.n_tokens, run.device_tail_rows, run.crcs) == (69, 5, {0: 99, 1: 7})
        state._apply(
            {"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden",
             "index": 1, "crc": 123}
        )
        assert (run.n_tokens, run.device_tail_rows, run.crcs) == (128, 0, {0: 99, 1: 123})

    def test_register_opens_the_runs_it_names_at_its_kv_width(self):
        state = fold(RECORDS[:1])
        assert state.runs("a") == ((0, "hidden"),)
        assert (state.meta("a").kv_width, fold(RECORDS[4:5]).meta("b").kv_width) == (16, 4)

    def test_run_record_opens_an_empty_run(self):
        state = fold(RECORDS[:1])
        state._apply({"op": "run", "context_id": "a", "layer": 1, "kind": "kv"})
        run = state._contexts["a"].runs[(1, "kv")]
        assert (run.n_tokens, run.device_tail_rows) == (0, 0)
        # Re-opening an existing run keeps it.
        state._apply({"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden",
                      "index": 0, "crc": 5})
        state._apply({"op": "run", "context_id": "a", "layer": 0, "kind": "hidden"})
        assert state.tokens_stored("a", 0) == 64

    def test_free_drops_what_it_names(self):
        assert fold(RECORDS).context_ids() == ("b",)

    @pytest.mark.parametrize(
        "record",
        [
            {"op": "free_run", "context_id": "a", "layer": 0, "kind": "hidden"},
            {"op": "chunk", "context_id": "a", "layer": 1, "kind": "hidden",
             "index": 0, "crc": 5},
            {"op": "seal", "context_id": "a",
             "tails": [{"layer": 0, "kind": "kv", "index": 0, "tokens": 5, "crc": 7}]},
            {"op": "register", "context_id": "g", "n_layers": 2, "hidden_width": 8,
             "dtype": "float32", "runs": []},
        ],
        ids=["free_run", "chunk-of-unopened-run", "seal-of-unopened-run", "no-kv_width"],
    )
    def test_a_record_shape_no_code_writes_is_corrupt(self, record):
        """One journal format: journals die with their devices, so no
        older record shape can meet a manager."""
        with pytest.raises(JournalCorruptError):
            fold(RECORDS[:1] + [record])
