"""Tests for the write-ahead manifest journal (crash-safe metadata)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, JournalCorruptError, StateError
from repro.storage import ManifestJournal, ManifestState


RECORDS = [
    {"op": "register", "context_id": "a", "n_layers": 2, "hidden_width": 8, "dtype": "float32"},
    {"op": "tokens", "context_id": "a", "ids": [1, 2, 3]},
    {"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden", "index": 0, "crc": 99},
    {"op": "seal", "context_id": "a",
     "tails": [{"layer": 0, "kind": "hidden", "index": 1, "tokens": 5, "crc": 7}]},
    {"op": "register", "context_id": "b", "n_layers": 2, "hidden_width": 8, "dtype": "float32"},
    {"op": "tokens", "context_id": "b", "ids": [9]},
    {"op": "free", "context_id": "a"},
]


def fold(records) -> ManifestState:
    state = ManifestState()
    for record in records:
        state.apply(record)
    return state


def states_equal(a: ManifestState, b: ManifestState) -> bool:
    def shape(state):
        return {
            cid: (
                crec.n_layers,
                crec.hidden_width,
                crec.kv_width,
                crec.dtype,
                tuple(crec.tokens),
                {
                    run_key: (
                        run.full_chunks,
                        tuple(sorted(run.chunk_crcs.items())),
                        run.sealed_tail_tokens,
                        run.sealed_tail_index,
                        run.sealed_tail_crc,
                    )
                    for run_key, run in crec.runs.items()
                },
            )
            for cid, crec in state.contexts.items()
        }

    return shape(a) == shape(b)


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            replayed = journal.replay()
        assert states_equal(replayed, fold(RECORDS))

    def test_replay_survives_reopen(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
        with ManifestJournal(tmp_path) as journal:
            assert states_equal(journal.replay(), fold(RECORDS))

    def test_kv_width_defaults_to_mha_for_older_journals(self):
        """Records written before GQA support carry no ``kv_width``."""
        gqa = dict(RECORDS[0], context_id="g", kv_width=4)
        state = fold([RECORDS[0], gqa])
        assert state.contexts["a"].kv_width == 16
        assert state.contexts["g"].kv_width == 4
        assert states_equal(ManifestState.from_payload(state.to_payload()), state)

    def test_empty_journal_replays_empty(self, tmp_path):
        with ManifestJournal(tmp_path) as journal:
            assert journal.replay().contexts == {}

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = ManifestJournal(tmp_path)
        journal.close()
        with pytest.raises(StateError):
            journal.append(RECORDS[0])

    def test_fsync_every_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            ManifestJournal(tmp_path, fsync_every=0)

    def test_batched_fsync_still_replays(self, tmp_path):
        with ManifestJournal(tmp_path, fsync_every=16) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.sync()
            assert states_equal(journal.replay(), fold(RECORDS))


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
                assert states_equal(replayed, fold(RECORDS[:n_whole])), offset
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
            assert states_equal(journal.replay(), fold(RECORDS[:1] + [RECORDS[2]]))

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
            assert states_equal(journal.replay(), fold(RECORDS))

    def test_records_after_compaction_extend_snapshot(self, tmp_path):
        extra = {"op": "tokens", "context_id": "b", "ids": [5, 6]}
        with ManifestJournal(tmp_path) as journal:
            for record in RECORDS:
                journal.append(record)
            journal.compact(journal.replay())
            journal.append(extra)
        with ManifestJournal(tmp_path) as journal:
            assert states_equal(journal.replay(), fold(RECORDS + [extra]))

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
            assert states_equal(journal.replay(), fold(RECORDS))

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
            assert states_equal(journal.replay(), fold(RECORDS))

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


class TestRecordSemantics:
    def test_duplicate_register_is_corrupt(self):
        state = ManifestState()
        state.apply(RECORDS[0])
        with pytest.raises(JournalCorruptError):
            state.apply(RECORDS[0])

    def test_unknown_context_is_corrupt(self):
        with pytest.raises(JournalCorruptError):
            ManifestState().apply({"op": "tokens", "context_id": "ghost", "ids": [1]})

    def test_unknown_op_is_corrupt(self):
        with pytest.raises(JournalCorruptError):
            ManifestState().apply({"op": "frobnicate"})

    def test_full_chunk_supersedes_sealed_tail(self):
        state = fold(RECORDS[:4])
        run = state.contexts["a"].runs[(0, "hidden")]
        assert run.sealed_tail_tokens == 5
        state.apply(
            {"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden",
             "index": 1, "crc": 123}
        )
        assert run.sealed_tail_tokens == 0
        assert run.full_chunks == 2

    def test_run_record_opens_an_empty_run(self):
        state = fold(RECORDS[:1])
        state.apply({"op": "run", "context_id": "a", "layer": 1, "kind": "kv"})
        run = state.contexts["a"].runs[(1, "kv")]
        assert (run.full_chunks, run.sealed_tail_tokens) == (0, 0)
        # Re-opening an existing run (a chunk or seal came first) keeps it.
        state.apply({"op": "chunk", "context_id": "a", "layer": 0, "kind": "hidden",
                     "index": 0, "crc": 5})
        state.apply({"op": "run", "context_id": "a", "layer": 0, "kind": "hidden"})
        assert state.contexts["a"].runs[(0, "hidden")].full_chunks == 1

    def test_runs_open_implicitly_without_run_records(self):
        """Journals written before ``run`` records existed still replay:
        a run's first chunk or seal opens it."""
        state = fold(RECORDS[:4])
        assert set(state.contexts["a"].runs) == {(0, "hidden")}
