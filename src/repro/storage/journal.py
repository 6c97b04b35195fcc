"""Write-ahead manifest journal: crash-safe storage metadata (ROADMAP: fault tolerance).

The chunk payloads themselves already stream to storage devices as they
are produced (§4.2) — what a crash destroys is the *metadata*: the
in-memory context registry, run lengths, tail buffers, and seal state of
:class:`repro.storage.manager.StorageManager`.  Following DéjàVu's
observation that streamed state makes fault tolerance a metadata-and-
replication problem, this module makes that metadata durable with a
classic write-ahead log of the manager's **records** (``register`` /
``run`` / ``chunk`` / ``seal`` / ``tokens`` / ``free``).
It gives them no meaning: ``StorageManager._apply`` is the one fold.

- Records are framed as ``<u32 payload_len><u32 crc32><payload>`` with a
  JSON payload.  A torn final write — the normal crash artifact of an
  append-only file — is detected by the length field; every other
  corruption by the checksum.
- :meth:`ManifestJournal.replay` returns the snapshot's records, then the
  log's.  A torn tail is truncated (the strict prefix of committed
  records survives); a complete-but-corrupt frame raises
  :class:`repro.errors.JournalCorruptError`.  Recovery is conservative or
  loud — never silently wrong.
- :meth:`ManifestJournal.compact` atomically installs a snapshot (tmp
  file + fsync + rename) and switches to a fresh journal *generation*.
  A snapshot is a header frame naming the generation of the log that
  extends it and how many records follow, then one frame per record; a
  crash anywhere during compaction replays either the old snapshot + old
  log or the new snapshot + new (empty) log — never a snapshot with a
  stale log double-applied on top.

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
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ConfigError, JournalCorruptError, StateError

_FRAME = struct.Struct("<II")

#: Upper bound on one record's JSON payload.  Far above anything the
#: manager writes; a length field beyond it can only be corruption (a torn
#: append shortens the file, it never fabricates header bytes).
MAX_RECORD_BYTES = 1 << 24


class ManifestJournal:
    """Append-only manifest log + compacted snapshot over one directory.

    Every :meth:`append` is fsynced before it returns.

    Args:
        directory: Where the log and snapshot files live; created if
            missing.  One directory corresponds to one
            :class:`~repro.storage.manager.StorageManager`'s lifetime.
    """

    SNAPSHOT_NAME = "manifest.snapshot"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / self.SNAPSHOT_NAME
        self._closed = False
        self.generation = self._read_snapshot()[0] if self.snapshot_path.exists() else 0
        self._fh = open(self.journal_path, "ab")

    # -- paths and lifecycle -------------------------------------------

    def _journal_path(self, generation: int) -> Path:
        return self.directory / f"manifest.{generation:08d}.journal"

    @property
    def journal_path(self) -> Path:
        """The current generation's log file."""
        return self._journal_path(self.generation)

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
    def _frame(record: Mapping[str, Any]) -> bytes:
        payload = json.dumps(dict(record), separators=(",", ":")).encode("utf-8")
        if len(payload) > MAX_RECORD_BYTES:
            raise ConfigError(f"journal record of {len(payload)} B exceeds the frame limit")
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
        """Frame, append and fsync one record."""
        if self._closed:
            raise StateError("manifest journal is closed")
        self._fh.write(self._frame(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

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

    def _read_snapshot(self) -> tuple[int, list[dict[str, Any]]]:
        """The snapshot's ``(generation, records)``."""
        data = self.snapshot_path.read_bytes()
        # Snapshots are installed atomically (tmp + fsync + rename), so a
        # torn snapshot cannot be a crash artifact — any parse failure is
        # real corruption.
        frames, _ = self._parse_frames(data, "snapshot", tolerate_torn=False)
        try:
            header = frames[0]
            generation, count = int(header["generation"]), int(header["records"])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptError(
                "snapshot header names no generation and record count"
            ) from exc
        if count != len(frames) - 1:
            raise JournalCorruptError(
                f"snapshot header promises {count} records, found {len(frames) - 1}"
            )
        return generation, frames[1:]

    def replay(self) -> list[dict[str, Any]]:
        """The durable records, oldest first: the snapshot's, then the log's.

        A torn trailing record is discarded and physically truncated away,
        so later appends extend a clean prefix.  Everything before the
        tear replays; any complete-but-corrupt record raises
        :class:`JournalCorruptError` instead of producing wrong metadata.
        """
        records = self._read_snapshot()[1] if self.snapshot_path.exists() else []
        if not self._closed:
            self._fh.flush()
        try:
            data = self.journal_path.read_bytes()
        except FileNotFoundError:
            data = b""
        logged, clean = self._parse_frames(data, "journal", tolerate_torn=True)
        if clean < len(data):
            self._truncate_log(clean)
        return records + logged

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

    def compact(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Atomically install ``records`` as the snapshot; start a fresh log.

        Sequence: frame every record (an oversized one raises
        :class:`ConfigError` before any file changes), create the next
        generation's (empty) log, write the snapshot naming that
        generation to a tmp file, fsync, rename over the old snapshot,
        then delete superseded logs.  The rename is the commit point —
        replay before it sees old snapshot + old log, replay after it sees
        new snapshot + empty log; no interleaving double-applies records.
        """
        if self._closed:
            raise StateError("manifest journal is closed")
        frames = [self._frame(record) for record in records]
        next_gen = self.generation + 1
        next_log = self._journal_path(next_gen)
        with open(next_log, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        tmp = self.snapshot_path.with_name(self.SNAPSHOT_NAME + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(self._frame({"generation": next_gen, "records": len(frames)}))
            fh.writelines(frames)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        self._fh.close()
        self.generation = next_gen
        self._fh = open(next_log, "ab")
        for stale in self.directory.glob("manifest.*.journal"):
            if stale != next_log:
                stale.unlink(missing_ok=True)
