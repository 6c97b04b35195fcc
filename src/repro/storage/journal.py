"""Write-ahead manifest journal: crash-safe storage metadata (ROADMAP: fault tolerance).

The chunk payloads themselves already stream to storage devices as they
are produced (§4.2) — what a crash destroys is the *metadata*: the
in-memory context registry, run lengths, tail buffers, and seal state of
:class:`repro.storage.manager.StorageManager`.  Following DéjàVu's
observation that streamed state makes fault tolerance a metadata-and-
replication problem, this module makes that metadata durable with a
classic write-ahead log:

- Every mutation of the manager's durable state appends one **record** to
  an append-only journal file: ``register`` / ``chunk`` / ``seal`` /
  ``tokens`` / ``free_run`` / ``free``.
- Records are framed as ``<u32 payload_len><u32 crc32><payload>`` with a
  JSON payload.  A torn final write — the normal crash artifact of an
  append-only file — is detected by the length field; every other
  corruption by the checksum.
- :meth:`ManifestJournal.replay` folds snapshot + journal into a
  :class:`ManifestState`.  A torn tail is truncated (the strict prefix of
  committed records survives); a complete-but-corrupt record raises
  :class:`repro.errors.JournalCorruptError`.  Recovery is conservative or
  loud — never silently wrong.
- :meth:`ManifestJournal.compact` atomically installs a snapshot of the
  full state (tmp file + fsync + rename) and switches to a fresh journal
  *generation*: the snapshot names the generation of the log that extends
  it, so a crash anywhere during compaction replays either the old
  snapshot + old log or the new snapshot + new (empty) log — never a
  snapshot with a stale log double-applied on top.

Commit-point ordering is the manager's contract, not this module's: a
chunk is written to its device *first* and journaled *second*, so every
journaled chunk is durably readable, and device chunks with no journal
record are orphans that recovery sweeps.  Token ids are journaled *before*
their state rows are appended, so the durable token log always covers the
durable rows and recovery only ever truncates it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigError, JournalCorruptError, StateError

_FRAME = struct.Struct("<II")

#: Upper bound on one record's JSON payload.  Far above anything the
#: manager writes; a length field beyond it can only be corruption (a torn
#: append shortens the file, it never fabricates header bytes).
MAX_RECORD_BYTES = 1 << 24


@dataclass
class RunManifest:
    """Durable description of one (layer, kind) token run.

    Attributes:
        full_chunks: Completely filled chunks journaled as device-resident.
        chunk_crcs: CRC32 of each full chunk's payload, by chunk index.
        sealed_tail_tokens: Rows of the sealed partial tail chunk (0 when
            the tail was never sealed, or was superseded by a full chunk).
        sealed_tail_index: Chunk index the sealed tail occupies (-1 none).
        sealed_tail_crc: CRC32 of the sealed tail payload.
    """

    full_chunks: int = 0
    chunk_crcs: dict[int, int] = field(default_factory=dict)
    sealed_tail_tokens: int = 0
    sealed_tail_index: int = -1
    sealed_tail_crc: int = 0


@dataclass
class ContextManifest:
    """Durable description of one stored context."""

    n_layers: int
    hidden_width: int
    kv_width: int
    dtype: str
    runs: dict[tuple[int, str], RunManifest] = field(default_factory=dict)
    tokens: list[int] = field(default_factory=list)


def _kv_width(record: Mapping[str, Any]) -> int:
    """A context's packed K|V width; journals older than GQA support omit
    it, and every context they describe used the MHA width."""
    return int(record.get("kv_width", 2 * int(record["hidden_width"])))


class ManifestState:
    """The fold of a journal: what the manager durably knew at each point.

    Built by :meth:`ManifestJournal.replay`; also serialized whole as the
    compacted snapshot.  :meth:`apply` is the single place journal records
    acquire meaning, so replaying ``snapshot + log`` and snapshotting the
    live manager produce identical states by construction.
    """

    def __init__(self) -> None:
        self.contexts: dict[str, ContextManifest] = {}

    # -- record semantics ----------------------------------------------

    def _context(self, record: Mapping[str, Any]) -> ContextManifest:
        context_id = record.get("context_id")
        if context_id not in self.contexts:
            raise JournalCorruptError(
                f"journal record {record.get('op')!r} names unknown context {context_id!r}"
            )
        return self.contexts[context_id]

    def apply(self, record: Mapping[str, Any]) -> None:
        """Fold one journal record into the state."""
        try:
            op = record.get("op")
            if op == "register":
                context_id = record["context_id"]
                if context_id in self.contexts:
                    raise JournalCorruptError(
                        f"context {context_id!r} registered twice without a free"
                    )
                self.contexts[context_id] = ContextManifest(
                    n_layers=int(record["n_layers"]),
                    hidden_width=int(record["hidden_width"]),
                    kv_width=_kv_width(record),
                    dtype=str(record["dtype"]),
                )
            elif op == "chunk":
                crec = self._context(record)
                run = crec.runs.setdefault(
                    (int(record["layer"]), str(record["kind"])), RunManifest()
                )
                index = int(record["index"])
                if index == run.sealed_tail_index:
                    # The sealed partial filled up and was rewritten as a
                    # full chunk in the same slot; the full chunk wins.
                    run.sealed_tail_tokens = 0
                    run.sealed_tail_index = -1
                    run.sealed_tail_crc = 0
                run.chunk_crcs[index] = int(record["crc"])
                run.full_chunks = max(run.full_chunks, index + 1)
            elif op == "seal":
                crec = self._context(record)
                for tail in record["tails"]:
                    run = crec.runs.setdefault(
                        (int(tail["layer"]), str(tail["kind"])), RunManifest()
                    )
                    run.sealed_tail_index = int(tail["index"])
                    run.sealed_tail_tokens = int(tail["tokens"])
                    run.sealed_tail_crc = int(tail["crc"])
            elif op == "tokens":
                self._context(record).tokens.extend(int(t) for t in record["ids"])
            elif op == "free_run":
                # A run with only unsealed tail rows was never journaled.
                self._context(record).runs.pop(
                    (int(record["layer"]), str(record["kind"])), None
                )
            elif op == "free":
                context_id = record.get("context_id")
                if context_id not in self.contexts:
                    raise JournalCorruptError(f"free of unknown context {context_id!r}")
                del self.contexts[context_id]
            else:
                raise JournalCorruptError(f"unknown journal record op {op!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptError(f"malformed journal record {record!r}") from exc

    # -- snapshot serialization ----------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-able snapshot of the full state."""
        contexts: dict[str, Any] = {}
        for context_id, crec in self.contexts.items():
            runs: dict[str, Any] = {}
            for (layer, kind), run in crec.runs.items():
                runs[f"{layer}:{kind}"] = {
                    "full_chunks": run.full_chunks,
                    "chunk_crcs": {str(i): c for i, c in run.chunk_crcs.items()},
                    "sealed_tail_tokens": run.sealed_tail_tokens,
                    "sealed_tail_index": run.sealed_tail_index,
                    "sealed_tail_crc": run.sealed_tail_crc,
                }
            contexts[context_id] = {
                "n_layers": crec.n_layers,
                "hidden_width": crec.hidden_width,
                "kv_width": crec.kv_width,
                "dtype": crec.dtype,
                "tokens": list(crec.tokens),
                "runs": runs,
            }
        return {"contexts": contexts}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ManifestState":
        state = cls()
        try:
            for context_id, crec_p in payload["contexts"].items():
                crec = ContextManifest(
                    n_layers=int(crec_p["n_layers"]),
                    hidden_width=int(crec_p["hidden_width"]),
                    kv_width=_kv_width(crec_p),
                    dtype=str(crec_p["dtype"]),
                    tokens=[int(t) for t in crec_p["tokens"]],
                )
                for run_name, run_p in crec_p["runs"].items():
                    layer_s, _, kind = run_name.partition(":")
                    crec.runs[(int(layer_s), kind)] = RunManifest(
                        full_chunks=int(run_p["full_chunks"]),
                        chunk_crcs={
                            int(i): int(c) for i, c in run_p["chunk_crcs"].items()
                        },
                        sealed_tail_tokens=int(run_p["sealed_tail_tokens"]),
                        sealed_tail_index=int(run_p["sealed_tail_index"]),
                        sealed_tail_crc=int(run_p["sealed_tail_crc"]),
                    )
                state.contexts[str(context_id)] = crec
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptError("malformed snapshot payload") from exc
        return state


class ManifestJournal:
    """Append-only manifest log + compacted snapshot over one directory.

    Args:
        directory: Where the log and snapshot files live; created if
            missing.  One directory corresponds to one
            :class:`~repro.storage.manager.StorageManager`'s lifetime.
        fsync_every: Records between ``fsync`` barriers.  1 (the default)
            makes every record durable before ``append`` returns; larger
            values trade a bounded loss window for fewer syncs.
    """

    SNAPSHOT_NAME = "manifest.snapshot"

    def __init__(self, directory: str | Path, fsync_every: int = 1) -> None:
        if fsync_every <= 0:
            raise ConfigError("fsync_every must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / self.SNAPSHOT_NAME
        self.fsync_every = int(fsync_every)
        self._pending_sync = 0
        self._closed = False
        self.generation = self._snapshot_generation()
        self._fh = open(self.journal_path, "ab")

    # -- paths and lifecycle -------------------------------------------

    def _journal_path(self, generation: int) -> Path:
        return self.directory / f"manifest.{generation:08d}.journal"

    @property
    def journal_path(self) -> Path:
        """The current generation's log file."""
        return self._journal_path(self.generation)

    def _snapshot_generation(self) -> int:
        """Read the generation the snapshot names (0 when no snapshot)."""
        if not self.snapshot_path.exists():
            return 0
        payload = self._read_snapshot_record()
        try:
            return int(payload["generation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptError("snapshot names no journal generation") from exc

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush, fsync, and release the log file handle."""
        if self._closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "ManifestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- framing -------------------------------------------------------

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def _parse_frames(
        data: bytes, source: str, tolerate_torn: bool
    ) -> tuple[list[dict[str, Any]], int]:
        """Decode framed records; return ``(records, clean_byte_count)``.

        A short final frame is a torn tail: with ``tolerate_torn`` the
        parse stops there (``clean_byte_count`` marks the cut), otherwise
        it raises.  A *complete* frame that fails its checksum, decodes to
        non-JSON, or claims an absurd length is corruption and always
        raises — truncation can only shorten an append-only file, it
        cannot fabricate those bytes.
        """
        records: list[dict[str, Any]] = []
        pos = 0
        n = len(data)
        while pos < n:
            if n - pos < _FRAME.size:
                if tolerate_torn:
                    break
                raise JournalCorruptError(f"{source}: torn record header at byte {pos}")
            length, crc = _FRAME.unpack_from(data, pos)
            if length > MAX_RECORD_BYTES:
                raise JournalCorruptError(
                    f"{source}: record at byte {pos} claims {length} B payload"
                )
            end = pos + _FRAME.size + length
            if end > n:
                if tolerate_torn:
                    break
                raise JournalCorruptError(f"{source}: torn record payload at byte {pos}")
            payload = data[pos + _FRAME.size : end]
            if zlib.crc32(payload) != crc:
                raise JournalCorruptError(
                    f"{source}: record at byte {pos} fails its checksum"
                )
            try:
                record = json.loads(payload)
            except ValueError as exc:
                raise JournalCorruptError(
                    f"{source}: record at byte {pos} is not valid JSON"
                ) from exc
            if not isinstance(record, dict):
                raise JournalCorruptError(
                    f"{source}: record at byte {pos} is not an object"
                )
            records.append(record)
            pos = end
        return records, pos

    # -- writing -------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """Frame and append one record, fsyncing per ``fsync_every``."""
        if self._closed:
            raise StateError("manifest journal is closed")
        payload = json.dumps(dict(record), separators=(",", ":")).encode("utf-8")
        if len(payload) > MAX_RECORD_BYTES:
            raise ConfigError(f"journal record of {len(payload)} B exceeds the frame limit")
        self._fh.write(self._frame(payload))
        self._fh.flush()
        self._pending_sync += 1
        if self._pending_sync >= self.fsync_every:
            os.fsync(self._fh.fileno())
            self._pending_sync = 0

    def sync(self) -> None:
        """Force an fsync barrier regardless of ``fsync_every``."""
        if self._closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending_sync = 0

    @property
    def journal_bytes(self) -> int:
        """Size of the current log file (compaction trigger input)."""
        if not self._closed:
            self._fh.flush()
        try:
            return self.journal_path.stat().st_size
        except FileNotFoundError:
            return 0

    # -- replay --------------------------------------------------------

    def _read_snapshot_record(self) -> dict[str, Any]:
        data = self.snapshot_path.read_bytes()
        # Snapshots are installed atomically (tmp + fsync + rename), so a
        # torn snapshot cannot be a crash artifact — any parse failure is
        # real corruption.
        records, _ = self._parse_frames(data, "snapshot", tolerate_torn=False)
        if len(records) != 1:
            raise JournalCorruptError(
                f"snapshot must hold exactly one record, found {len(records)}"
            )
        return records[0]

    def replay(self, truncate_torn: bool = True) -> ManifestState:
        """Fold snapshot + journal into the durable manifest state.

        A torn trailing record is discarded — and, with ``truncate_torn``
        (the default), physically truncated away so later appends extend a
        clean prefix.  Everything before the tear replays; any complete-
        but-corrupt record raises :class:`JournalCorruptError` instead of
        producing wrong metadata.
        """
        state = ManifestState()
        if self.snapshot_path.exists():
            snapshot = self._read_snapshot_record()
            try:
                state = ManifestState.from_payload(snapshot["state"])
            except KeyError as exc:
                raise JournalCorruptError("snapshot carries no state payload") from exc
        if not self._closed:
            self._fh.flush()
        try:
            data = self.journal_path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, clean = self._parse_frames(data, "journal", tolerate_torn=True)
        if truncate_torn and clean < len(data):
            self._truncate_log(clean)
        for record in records:
            state.apply(record)
        return state

    def _truncate_log(self, offset: int) -> None:
        was_open = not self._closed
        if was_open:
            self._fh.close()
        with open(self.journal_path, "r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
        if was_open:
            self._fh = open(self.journal_path, "ab")

    # -- compaction ----------------------------------------------------

    def compact(self, state: ManifestState) -> None:
        """Atomically install ``state`` as the snapshot; start a fresh log.

        Sequence: create the next generation's (empty) log, write the
        snapshot naming that generation to a tmp file, fsync, rename over
        the old snapshot, then delete superseded logs.  The rename is the
        commit point — replay before it sees old snapshot + old log,
        replay after it sees new snapshot + empty log; no interleaving
        double-applies records.
        """
        if self._closed:
            raise StateError("manifest journal is closed")
        next_gen = self.generation + 1
        next_log = self._journal_path(next_gen)
        with open(next_log, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        payload = json.dumps(
            {"generation": next_gen, "state": state.to_payload()},
            separators=(",", ":"),
        ).encode("utf-8")
        tmp = self.snapshot_path.with_name(self.SNAPSHOT_NAME + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(self._frame(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        self._fh.close()
        self.generation = next_gen
        self._fh = open(next_log, "ab")
        self._pending_sync = 0
        for stale in self.directory.glob("manifest.*.journal"):
            if stale != next_log:
                stale.unlink(missing_ok=True)
