"""The HCache storage manager (§4.2).

Functionally stores hidden states (and, for scheduler-assigned layers, KV
pairs) in 64-token chunks striped round-robin over a storage array, and
reports the timing of layer-granularity reads for the restoration pipeline.

Saving follows the paper's lifecycle: states arrive layer-before-token as
generation proceeds; full chunks are flushed to devices immediately ("once
a chunk is fully populated, it is promptly written to the NVMe device",
§5), while the partially filled tail chunk stays in a host-side buffer
until :meth:`StorageManager.seal_context` or further appends fill it.
Restoration reads token-before-layer: one call fetches a whole layer.

Each context is one object (its shape, its token log and its runs), and
each (layer, kind) run is one object: the host tail buffer, the stored
row count, how many tail rows the last seal put on a device, and the
journaled slot CRCs.  Everything the manager knows — the byte count
against capacity, the journal's snapshot, a recovered manager — is read
from or written to these objects, and nothing else describes them.

Durability (optional): with a :class:`~repro.storage.journal.
ManifestJournal` attached, every metadata mutation is journaled as one
record, and :meth:`StorageManager._apply` is the one place a record
acquires meaning: :meth:`StorageManager.recover` folds the journal's
records into a fresh manager and rebuilds it from them + device chunks
alone after a crash, and a compacted snapshot is the records
(:meth:`StorageManager.durable_records`) whose fold is the durable state.
The commit-point ordering is strict — device write first, journal record
second — so a journaled chunk is always readable and an unjournaled
device chunk is an orphan recovery sweeps; a crash between the two can
therefore never double-count tokens.  No key is ever written twice: a
sealed partial's key names its row count (:attr:`ChunkKey.rows`), so the
full chunk or longer partial that replaces it lands under a key of its
own, and the partial is deleted only once its successor's record has
landed.  A crash at any point leaves every journaled key readable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (
    AllocationError,
    ConfigError,
    DeviceFault,
    JournalCorruptError,
    RecoveryError,
    StateError,
)
from repro.storage.array import StorageArray
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey
from repro.storage.device import StorageDevice
from repro.storage.journal import ManifestJournal
from repro.storage.replicated import ReplicatedDevice

#: Storage chunks coalesced into each streamed restore granule.  IO stays
#: chunk-granular (every device chunk is its own read); this only sets how
#: many rows one projection call covers.  Read it through
#: :attr:`StorageManager.granule_tokens`, never by importing the name.
GRANULE_CHUNKS = 4

#: Journal log size that triggers a compacted snapshot (checked at seals).
JOURNAL_COMPACT_BYTES = 1 << 20

#: Token ids per ``tokens`` record of a compacted snapshot, so that no
#: snapshot record nears the journal's frame limit however long a log is.
SNAPSHOT_TOKENS_PER_RECORD = 1024

_KINDS = ("hidden", "kv")


def _payload_crc(payload: np.ndarray) -> int:
    """CRC32 of a chunk payload's bytes (row-major, any input layout)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


def _read_journaled(device: StorageDevice | ReplicatedDevice, key: ChunkKey) -> np.ndarray:
    """Read a chunk the journal says is durable, for recovery's audit.

    A device that holds the key but cannot return its bytes (a torn or
    unreadable chunk file) contradicts the journal just as a missing
    chunk does.
    """
    try:
        return device.read(key)
    except DeviceFault as exc:
        raise RecoveryError(f"journaled chunk {key} is unreadable: {exc}") from exc


class _Run:
    """One (context, layer, kind) token run.

    Rows ``[0, n_tokens - n_tokens % tokens_per_chunk)`` sit on the
    devices as full chunks; the rest are the first rows of ``tail``, a
    preallocated one-chunk host buffer written by slice assignment.  The
    first ``device_tail_rows`` tail rows are also on a device, in the
    current tail slot, as the partial the last seal wrote (its key's
    ``rows``): all of them while the run is sealed, fewer once appends
    have grown it (that copy stays durable until the full chunk or the
    next seal's longer partial is journaled, and is deleted then).
    ``crcs`` holds the journaled CRC of every slot by chunk index
    — each full chunk, and the sealed tail's — and stays empty without a
    journal.
    """

    __slots__ = ("tail", "n_tokens", "device_tail_rows", "crcs")

    def __init__(self, tokens_per_chunk: int, width: int, dtype: np.dtype) -> None:
        self.tail = np.empty((tokens_per_chunk, width), dtype=dtype)
        self.n_tokens = 0
        self.device_tail_rows = 0
        self.crcs: dict[int, int] = {}

    def allocated_bytes(self) -> int:
        """Chunk capacity held: a whole chunk for every chunk started."""
        tokens_per_chunk = self.tail.shape[0]
        return -(-self.n_tokens // tokens_per_chunk) * self.tail.nbytes


@dataclass(frozen=True)
class ContextMeta:
    """Shape information for one stored context.

    Attributes:
        context_id: Stable identity (conversation / document id).
        n_layers: Transformer layer count of the serving model.
        hidden_width: Per-token hidden-state element count.
        kv_width: Per-token packed K|V element count (``2 * kv_size``;
            2x hidden for MHA, narrower under GQA).
        dtype: Element dtype of stored state.
    """

    context_id: str
    n_layers: int
    hidden_width: int
    kv_width: int
    dtype: np.dtype

    def width(self, kind: str) -> int:
        """Row width of a ``"hidden"`` or ``"kv"`` run."""
        return self.hidden_width if kind == "hidden" else self.kv_width


@dataclass(frozen=True)
class GranuleSpec:
    """Where one streamed granule sits in a layer's token run, without data.

    :meth:`StorageManager.granule_plan` enumerates these without touching
    any device, which is what lets the restore loop submit the reads ahead
    of consumption while keeping the consumption order (and therefore the
    numerics) identical to a single-threaded stream.

    Attributes:
        layer: Model layer the rows belong to.
        kind: ``"hidden"`` or ``"kv"``.
        start: First token row covered (inclusive).
        stop: Last token row covered (exclusive).
    """

    layer: int
    kind: str
    start: int
    stop: int

    @property
    def n_tokens(self) -> int:
        return self.stop - self.start


def _register_record(meta: ContextMeta, runs: Iterable[tuple[int, str]]) -> dict[str, Any]:
    return {
        "op": "register",
        "context_id": meta.context_id,
        "n_layers": meta.n_layers,
        "hidden_width": meta.hidden_width,
        "kv_width": meta.kv_width,
        "dtype": str(meta.dtype),
        "runs": [[layer, kind] for layer, kind in runs],
    }


@dataclass
class _Context:
    """One stored context: its shape, durable token log and runs."""

    meta: ContextMeta
    tokens: list[int] = field(default_factory=list)
    runs: dict[tuple[int, str], _Run] = field(default_factory=dict)


class StorageManager:
    """Chunked host storage for contextual LLM states."""

    def __init__(
        self,
        array: StorageArray,
        capacity_bytes: int | None = None,
        tokens_per_chunk: int = CHUNK_TOKENS,
        journal: ManifestJournal | None = None,
    ) -> None:
        if tokens_per_chunk <= 0:
            raise ConfigError("tokens_per_chunk must be positive")
        if capacity_bytes is None:
            capacity_bytes = sum(d.capacity_bytes for d in array.devices)
        if capacity_bytes <= 0:
            raise AllocationError("storage capacity must be positive")
        self.array = array
        self.tokens_per_chunk = tokens_per_chunk
        #: Byte budget for chunk slots.
        self.capacity_bytes = int(capacity_bytes)
        #: Bytes of chunk slots in use: a whole chunk for every chunk any
        #: run has started.  Checked against the budget before an append
        #: lands any row; advanced as each chunk or tail row lands.
        self.allocated_bytes = 0
        #: Optional write-ahead manifest journal; with ``None`` the hot path
        #: journals nothing and computes no CRC (and nothing is crash-safe).
        self.journal = journal
        self._contexts: dict[str, _Context] = {}

    # ------------------------------------------------------------------
    # context lifecycle
    # ------------------------------------------------------------------

    def register_context(
        self,
        context_id: str,
        n_layers: int,
        hidden_width: int,
        dtype: np.dtype | type = np.float32,
        kv_width: int | None = None,
        runs: Sequence[tuple[int, str]] = (),
    ) -> ContextMeta:
        """Declare a context before saving any of its state.

        ``kv_width`` is the packed K|V row width of KV-offloaded layers;
        ``None`` means the MHA width, ``2 * hidden_width``.  ``runs`` names
        the ``(layer, kind)`` runs opened empty with the context, the only
        runs it ever holds: :meth:`append` to any other raises
        :class:`StateError`.  They are journaled in its one ``register``
        record, ahead of its first token ids, so a crash recovers the
        context with all of them or not at all — never with some.
        """
        if context_id in self._contexts:
            raise StateError(f"context {context_id!r} already registered")
        if kv_width is None:
            kv_width = 2 * hidden_width
        if n_layers <= 0 or hidden_width <= 0 or kv_width <= 0:
            raise ConfigError("context needs positive layer count and state widths")
        meta = ContextMeta(
            context_id=context_id,
            n_layers=n_layers,
            hidden_width=hidden_width,
            kv_width=kv_width,
            dtype=np.dtype(dtype),
        )
        ctx = _Context(meta)
        for layer, kind in runs:
            self._open_run(ctx, layer, kind)
        self._contexts[context_id] = ctx
        if self.journal is not None:
            self.journal.append(_register_record(meta, ctx.runs))
        return meta

    def _context(self, context_id: str) -> _Context:
        ctx = self._contexts.get(context_id)
        if ctx is None:
            raise StateError(f"context {context_id!r} not registered")
        return ctx

    def _run(self, context_id: str, layer: int, kind: str) -> _Run:
        run = self._context(context_id).runs.get((layer, kind))
        if run is None:
            raise StateError(f"no run registered for {(context_id, layer, kind)}")
        return run

    def has_context(self, context_id: str) -> bool:
        return context_id in self._contexts

    def meta(self, context_id: str) -> ContextMeta:
        return self._context(context_id).meta

    def _open_run(self, ctx: _Context, layer: int, kind: str) -> None:
        """Open the context's ``(layer, kind)`` run empty; journals nothing."""
        meta = ctx.meta
        if layer < 0 or layer >= meta.n_layers:
            raise ConfigError(f"layer {layer} out of range for {meta.context_id!r}")
        if kind not in _KINDS:
            raise ConfigError(f"unknown run kind {kind!r}")
        ctx.runs[(layer, kind)] = _Run(self.tokens_per_chunk, meta.width(kind), meta.dtype)

    def runs(self, context_id: str) -> tuple[tuple[int, str], ...]:
        """The ``(layer, kind)`` of every run the context holds."""
        return tuple(self._context(context_id).runs)

    def free_context(self, context_id: str) -> int:
        """Drop a context's state everywhere, returning bytes freed.

        A registered context may own no runs at all — a pure-recompute
        partition never stores state, and sessions can close before their
        first save — so freeing releases nothing in that case.
        """
        ctx = self._context(context_id)
        # Journal the free *before* any deletion: replaying a prefix that
        # stops short of this record still describes readable chunks,
        # while a prefix that includes it never resurrects a half-deleted
        # context.  Device keys already gone at replay are no
        # contradiction — recovery sweeps, it does not require, freed
        # chunks.
        if self.journal is not None:
            self.journal.append({"op": "free", "context_id": context_id})
        for device in self.array.devices:
            for key in device.keys():
                if isinstance(key, ChunkKey) and key.context_id == context_id:
                    device.delete(key)
        del self._contexts[context_id]
        freed = sum(run.allocated_bytes() for run in ctx.runs.values())
        self.allocated_bytes -= freed
        return freed

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self._contexts)

    def journal_tokens(self, context_id: str, ids: Sequence[int]) -> None:
        """Append token ids to the context's durable token log.

        The engine calls this *before* appending the block's state rows,
        so the journaled log always covers (is at least as long as) the
        durably readable rows.  Recovery then truncates the log down to
        the durable row count — it never has to invent token ids, and a
        crash between this record and the rows' device writes costs
        nothing but a few spurious log entries.
        """
        ctx = self._context(context_id)
        ids = [int(t) for t in ids]
        if not ids:
            return
        ctx.tokens.extend(ids)
        if self.journal is not None:
            self.journal.append({"op": "tokens", "context_id": context_id, "ids": ids})

    def token_log(self, context_id: str) -> tuple[int, ...]:
        """The context's logged token ids, oldest first."""
        return tuple(self._context(context_id).tokens)

    # ------------------------------------------------------------------
    # saving (layer-before-token)
    # ------------------------------------------------------------------

    def append(self, context_id: str, layer: int, states: np.ndarray, kind: str = "hidden") -> None:
        """Append per-token state rows for one layer of a context.

        ``states`` has shape ``(n_new_tokens, width)`` where width is the
        hidden size for ``kind="hidden"`` and twice that for ``kind="kv"``
        (K and V concatenated).  Full chunks are flushed to their
        round-robin device; the tail remains host-buffered.

        The run must have been named at :meth:`register_context`, and
        capacity for every chunk the block starts (and for the sealed
        partial its full chunk replaces, held until that chunk's record
        lands) is checked before any row lands, so a refused append
        changes nothing.  Rows count as stored only once they land — in
        the tail, or on a device for the rows that complete a chunk — so a
        failed device write leaves the run at its last full chunk, and a
        retry of the remaining rows continues from there.
        """
        run = self._run(context_id, layer, kind)
        tail = run.tail
        states = np.asarray(states, dtype=tail.dtype)
        width = tail.shape[1]
        if states.ndim != 2 or states.shape[1] != width:
            raise ConfigError(f"states must be (n, {width}), got {states.shape}")
        cpc = self.tokens_per_chunk
        n_new = states.shape[0]
        self.check_room(self._room_bytes(run, n_new), f"append to {context_id}/L{layer}/{kind}")
        # Stream the block through: aligned full chunks flush as slice
        # views of the input (the device snapshots them); the remainder
        # lands in the preallocated tail by slice assignment.
        pos = 0
        while pos < n_new:
            rows = run.n_tokens % cpc
            if rows == 0 and n_new - pos >= cpc:
                self._flush_chunk(context_id, layer, kind, run, states[pos : pos + cpc])
                pos += cpc
                continue
            take = min(cpc - rows, n_new - pos)
            tail[rows : rows + take] = states[pos : pos + take]
            pos += take
            if rows + take == cpc:
                self._flush_chunk(context_id, layer, kind, run, tail)
            else:
                if rows == 0:
                    self.allocated_bytes += tail.nbytes
                run.n_tokens += take

    def _room_bytes(self, run: _Run, n_new: int) -> int:
        """Bytes that must be free for ``n_new`` more rows on ``run``: the
        chunk slots they start, plus the sealed partial whose full chunk
        they complete, which stays on its device until that chunk's record
        has landed."""
        cpc = self.tokens_per_chunk
        rows = run.n_tokens % cpc
        need = (-(-(rows + n_new) // cpc) - (rows > 0)) * run.tail.nbytes
        if run.device_tail_rows and rows + n_new >= cpc:
            need += run.device_tail_rows * run.tail.nbytes // cpc
        return need

    def append_bytes(self, context_id: str, n_new: int) -> int:
        """Bytes that must be free for ``n_new`` more rows on every run of
        the context: the chunk slots a save of them takes from the
        capacity, plus the sealed partials it replaces, held until then."""
        return sum(self._room_bytes(r, n_new) for r in self._context(context_id).runs.values())

    def check_room(self, need: int, what: str) -> None:
        """Raise :class:`AllocationError` unless ``need`` more bytes fit."""
        free = self.capacity_bytes - self.allocated_bytes
        if need > free:
            raise AllocationError(f"{what} needs {need} B of storage; {free} B are free")

    def _flush_chunk(
        self, context_id: str, layer: int, kind: str, run: _Run, payload: np.ndarray
    ) -> None:
        """Write the run's next full chunk; its rows count once it lands.

        The last seal's partial of the same slot is deleted only after the
        chunk's record, so every journaled key stays readable.
        """
        cpc = self.tokens_per_chunk
        index = run.n_tokens // cpc
        key = ChunkKey(context_id, layer, index, kind)
        device = self.array.device_for(index, offset=layer)
        device.write(key, payload)
        if run.n_tokens % cpc == 0:
            self.allocated_bytes += run.tail.nbytes
        run.n_tokens = (index + 1) * cpc
        # Commit point: journal AFTER the device write.  A journaled
        # chunk is always readable; an unjournaled device chunk is an
        # orphan recovery sweeps — never a double-counted token.
        if self.journal is not None:
            crc = _payload_crc(payload)
            run.crcs[index] = crc
            self.journal.append(
                {
                    "op": "chunk",
                    "context_id": context_id,
                    "layer": layer,
                    "kind": kind,
                    "index": index,
                    "crc": crc,
                }
            )
        if run.device_tail_rows:
            device.delete(replace(key, rows=run.device_tail_rows))
            run.device_tail_rows = 0

    def seal_context(self, context_id: str) -> None:
        """Flush every partially filled tail chunk to its device.

        Called when a conversation round ends and the context's GPU state
        is evicted — afterwards all state also lives on the storage
        devices.  The host buffer keeps the tail rows so a later round can
        grow the partial chunk; a grown tail is sealed under a new key and
        the partial it replaces is deleted after the ``seal`` record, so
        the device must hold both for a moment.  A failed write (a fault,
        or a device too full for both) deletes the partials this call
        wrote and changes nothing else.

        With a journal attached, sealing is also the durability boundary
        for partial tails: one ``seal`` record commits every tail written
        here (chunk index, row count, payload CRC), and the journal is
        compacted when its log has outgrown :data:`JOURNAL_COMPACT_BYTES`.
        Unsealed tail rows are the loss window a crash pays — bounded by
        one chunk per (layer, kind) run.
        """
        ctx = self._context(context_id)
        cpc = self.tokens_per_chunk
        written: list[tuple[_Run, StorageDevice | ReplicatedDevice, ChunkKey]] = []
        try:
            for (layer, kind), run in ctx.runs.items():
                index, rows = divmod(run.n_tokens, cpc)
                if rows == run.device_tail_rows:
                    continue  # no tail, or the device copy is already current
                key = ChunkKey(context_id, layer, index, kind, rows)
                device = self.array.device_for(index, offset=layer)
                device.write(key, run.tail[:rows])
                written.append((run, device, key))
        except Exception:
            # Unjournaled, so no record names them: the seal changes nothing.
            for _, device, key in written:
                device.delete(key)
            raise
        if self.journal is not None and written:
            tails: list[dict[str, Any]] = []
            for run, _, key in written:
                run.crcs[key.index] = _payload_crc(run.tail[: key.rows])
                tails.append(
                    {
                        "layer": key.layer,
                        "kind": key.kind,
                        "index": key.index,
                        "tokens": key.rows,
                        "crc": run.crcs[key.index],
                    }
                )
            self.journal.append({"op": "seal", "context_id": context_id, "tails": tails})
        for run, device, key in written:
            if run.device_tail_rows:
                device.delete(replace(key, rows=run.device_tail_rows))
            run.device_tail_rows = key.rows
        if self.journal is not None and self.journal.journal_bytes >= JOURNAL_COMPACT_BYTES:
            self.compact_journal()

    # ------------------------------------------------------------------
    # durability: snapshot, compaction, recovery
    # ------------------------------------------------------------------

    def durable_records(self) -> Iterator[dict[str, Any]]:
        """The journal records whose fold is the durable state.

        Exactly what replaying the journal from genesis would fold to:
        every run (named by its context's ``register`` record), its
        journaled full chunks, its sealed tail (including a sealed partial
        whose run has grown since: until its successor is journaled, its
        device copy is the durable source of those rows), and the token
        logs, split over records of :data:`SNAPSHOT_TOKENS_PER_RECORD` ids.
        Unsealed host-tail rows are deliberately absent: they are not
        durable.
        """
        cpc = self.tokens_per_chunk
        for context_id, ctx in self._contexts.items():
            yield _register_record(ctx.meta, ctx.runs)
            for start in range(0, len(ctx.tokens), SNAPSHOT_TOKENS_PER_RECORD):
                ids = ctx.tokens[start : start + SNAPSHOT_TOKENS_PER_RECORD]
                yield {"op": "tokens", "context_id": context_id, "ids": ids}
            tails: list[dict[str, Any]] = []
            for (layer, kind), run in ctx.runs.items():
                named = {"context_id": context_id, "layer": layer, "kind": kind}
                full = run.n_tokens // cpc
                for index in range(full):
                    yield {"op": "chunk", **named, "index": index, "crc": run.crcs[index]}
                if run.device_tail_rows:
                    tail = {"layer": layer, "kind": kind, "index": full}
                    tails.append(dict(tail, tokens=run.device_tail_rows, crc=run.crcs[full]))
            if tails:
                yield {"op": "seal", "context_id": context_id, "tails": tails}

    def compact_journal(self) -> None:
        """Write a compacted snapshot and reset the journal log."""
        if self.journal is None:
            raise StateError("storage manager has no journal attached")
        self.journal.compact(self.durable_records())

    def _apply(self, record: Mapping[str, Any]) -> None:
        """Fold one journal record into this manager's contexts and runs.

        The one place a record acquires meaning; called only on a manager
        with no journal attached, so folding journals nothing.  A folded
        run holds only what the journal proves durable: ``n_tokens`` is
        its journaled full chunks plus its sealed tail, ``device_tail_rows``
        that sealed tail, and ``crcs`` every journaled slot's CRC; its host
        tail holds nothing yet (:meth:`recover` fills it).  Runs open only
        with the ``register`` record that names them; a ``chunk`` or
        ``seal`` of a run it did not name is malformed.
        """
        cpc = self.tokens_per_chunk
        try:
            op, context_id = record.get("op"), record.get("context_id")
            if op == "register":
                if context_id in self._contexts:
                    raise JournalCorruptError(
                        f"context {context_id!r} registered twice without a free"
                    )
                try:
                    dtype = np.dtype(record["dtype"])
                except TypeError as exc:
                    raise RecoveryError(
                        f"context {context_id!r} has unknown dtype {record['dtype']!r}"
                    ) from exc
                meta = ContextMeta(
                    context_id=str(context_id),
                    n_layers=int(record["n_layers"]),
                    hidden_width=int(record["hidden_width"]),
                    kv_width=int(record["kv_width"]),
                    dtype=dtype,
                )
                ctx = _Context(meta)
                for layer, kind in record["runs"]:
                    self._open_run(ctx, int(layer), str(kind))
                self._contexts[meta.context_id] = ctx
                return
            if op not in ("chunk", "seal", "tokens", "free"):
                raise JournalCorruptError(f"unknown journal record op {op!r}")
            ctx = self._contexts.get(context_id)
            if ctx is None:
                raise JournalCorruptError(
                    f"journal record {op!r} names unknown context {context_id!r}"
                )
            if op == "free":
                self._contexts.pop(context_id)
            elif op == "tokens":
                ctx.tokens.extend(int(t) for t in record["ids"])
            elif op == "chunk":
                run = ctx.runs[int(record["layer"]), str(record["kind"])]
                index, full = int(record["index"]), run.n_tokens // cpc
                if run.device_tail_rows and index >= full:
                    if index > full:
                        raise RecoveryError(f"{record!r} lands past a sealed tail at chunk {full}")
                    # The sealed partial filled up and its full chunk
                    # landed; the full chunk wins, the partial is an orphan.
                    run.device_tail_rows = 0
                run.crcs[index] = int(record["crc"])
                run.n_tokens = max(full, index + 1) * cpc + run.device_tail_rows
            else:  # seal
                for tail in record["tails"]:
                    run = ctx.runs[int(tail["layer"]), str(tail["kind"])]
                    full, rows = run.n_tokens // cpc, int(tail["tokens"])
                    if int(tail["index"]) != full:
                        raise RecoveryError(
                            f"{context_id!r}: sealed tail at chunk {tail['index']} but "
                            f"{full} full chunks are journaled, in {tail!r}"
                        )
                    if not 0 < rows < cpc:
                        raise JournalCorruptError(f"sealed tail of {rows} rows in {record!r}")
                    run.crcs[full] = int(tail["crc"])
                    run.device_tail_rows = rows
                    run.n_tokens = full * cpc + rows
        except ConfigError as exc:
            raise RecoveryError(f"{exc}, in journal record {record!r}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorruptError(f"malformed journal record {record!r}") from exc

    @classmethod
    def recover(
        cls,
        array: StorageArray,
        journal: ManifestJournal,
        capacity_bytes: int | None = None,
        tokens_per_chunk: int = CHUNK_TOKENS,
    ) -> "StorageManager":
        """Rebuild a manager from journal + device chunks alone.

        The crash-recovery (and migrate-to-another-engine) entry point:
        nothing of the dead manager's memory survives.  The journal's
        records fold (:meth:`_apply`) into a fresh manager; each context's
        durable token count is the *minimum over its runs* of full-chunk
        tokens plus sealed tail.  Runs longer than the common durable count
        are truncated: a boundary chunk's surviving prefix is salvaged into
        the host tail buffer, excess device chunks are dropped, and the
        token log is cut to exactly the durable rows.  Journal/device
        contradictions (a journaled full chunk or sealed partial missing,
        a CRC mismatch, a layer beyond the context's, a token log shorter
        than the durable rows) raise :class:`~repro.errors.RecoveryError`
        — recovery is conservative or loud, never silently wrong.  Every
        journaled slot is re-read to check its CRC.  Unjournaled device
        chunks (orphans of a crash between write and journal append) are
        swept.

        The returned manager has ``journal`` attached and starts from a
        fresh compacted snapshot describing exactly the recovered state.
        """
        manager = cls(array, capacity_bytes, tokens_per_chunk)
        for record in journal.replay():
            manager._apply(record)
        cpc = tokens_per_chunk
        live: set[ChunkKey] = set()
        for context_id, ctx in manager._contexts.items():
            # Pass 1: audit every journaled slot against the devices; a
            # sealed partial's rows go back to the host tail.
            for (layer, kind), run in ctx.runs.items():
                full, rows = divmod(run.n_tokens, cpc)
                for index in range(full + (rows > 0)):
                    key = ChunkKey(context_id, layer, index, kind, rows if index == full else 0)
                    device = array.device_for(index, offset=layer)
                    if key not in device:
                        raise RecoveryError(
                            f"journaled chunk {key} is missing from its device"
                        )
                    # A chunk whose record was lost while later ones landed
                    # has no CRC; its payload supplies one.
                    payload = _read_journaled(device, key)
                    crc = _payload_crc(payload)
                    if run.crcs.setdefault(index, crc) != crc:
                        raise RecoveryError(
                            f"chunk {key} payload fails its journaled checksum"
                        )
                if rows:
                    run.tail[:rows] = payload
            durable_tokens = min(
                (run.n_tokens for run in ctx.runs.values()), default=len(ctx.tokens)
            )
            if len(ctx.tokens) < durable_tokens:
                raise RecoveryError(
                    f"context {context_id!r}: token log holds {len(ctx.tokens)} "
                    f"ids but {durable_tokens} rows are durable"
                )
            del ctx.tokens[durable_tokens:]
            # Pass 2: cut every run to the common count.  Device chunks
            # the cut leaves unclaimed are dropped by the sweep below.
            full_keep, rem = divmod(durable_tokens, cpc)
            for (layer, kind), run in ctx.runs.items():
                if run.n_tokens // cpc > full_keep:
                    # The cut lands inside one of this run's full chunks:
                    # salvage its prefix into the host tail; the over-long
                    # chunk cannot stay (reads and reseals assume exact
                    # shapes).
                    run.device_tail_rows = 0
                    if rem:
                        boundary = ChunkKey(context_id, layer, full_keep, kind)
                        device = array.device_for(full_keep, offset=layer)
                        payload = _read_journaled(device, boundary)
                        run.tail[:rem] = payload[:rem]
                elif run.device_tail_rows != rem:
                    # The cut lands in this run's own sealed tail, whose
                    # rows are in the host tail; its device copy stays
                    # only if the cut is exactly its end.
                    run.device_tail_rows = 0
                run.n_tokens = durable_tokens
                manager.allocated_bytes += run.allocated_bytes()
                rows = run.device_tail_rows
                kept = full_keep + (rows > 0)
                run.crcs = {i: c for i, c in run.crcs.items() if i < kept}
                live.update(
                    ChunkKey(context_id, layer, i, kind, rows if i == full_keep else 0)
                    for i in range(kept)
                )
        # Orphan sweep: device chunks no journaled run accounts for — the
        # crash artifacts of write-then-journal — plus everything truncated
        # above.  ``delete`` on a replicated device drops both copies.
        for device in array.devices:
            for key in device.keys():
                if isinstance(key, ChunkKey) and key not in live:
                    device.delete(key)
        manager.journal = journal
        manager.compact_journal()
        return manager

    # ------------------------------------------------------------------
    # restoration (token-before-layer)
    # ------------------------------------------------------------------

    def tokens_stored(self, context_id: str, layer: int, kind: str = "hidden") -> int:
        """Tokens currently stored for one layer (0 if the run is absent)."""
        ctx = self._contexts.get(context_id)
        run = None if ctx is None else ctx.runs.get((layer, kind))
        return 0 if run is None else run.n_tokens

    def load_layer(
        self,
        context_id: str,
        layer: int,
        kind: str = "hidden",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fetch one layer's full token run as a ``(n_tokens, width)`` array.

        One whole-layer :meth:`read_granule_into` into a preallocated
        destination (or a caller-provided ``out``, e.g. one row-block of
        the batched restoration input) — no intermediate part list, no
        ``np.concatenate``.
        """
        run = self._run(context_id, layer, kind)
        shape = (run.n_tokens, run.tail.shape[1])
        if out is None:
            out = np.empty(shape, dtype=run.tail.dtype)
        elif out.shape != shape or out.dtype != run.tail.dtype:
            raise ConfigError(
                f"out must be {shape} of {run.tail.dtype}, got {out.shape} of {out.dtype}"
            )
        self.read_granule_into(context_id, GranuleSpec(layer, kind, 0, run.n_tokens), out)
        return out

    @property
    def granule_tokens(self) -> int:
        """Rows of one streamed restore granule (:data:`GRANULE_CHUNKS` chunks)."""
        return GRANULE_CHUNKS * self.tokens_per_chunk

    def granule_plan(
        self, context_id: str, layers: Sequence[int], kind: str = "hidden"
    ) -> list[GranuleSpec]:
        """Enumerate the granules a streamed restore of ``layers`` covers.

        Pure metadata — no device is touched.  Each granule is
        :attr:`granule_tokens` rows (a layer's last one may be shorter).
        The specs come back layers in the given order, row ranges
        ascending within each layer — the order every consumer must
        project in to stay bit-exact with the reference restore.  The
        restore loop (:func:`repro.runtime.executor.drain_granules`)
        walks this plan to issue :meth:`read_granule_into` calls ahead of
        consumption.
        """
        granule = self.granule_tokens
        plan: list[GranuleSpec] = []
        for layer in layers:
            n_tokens = self._run(context_id, layer, kind).n_tokens
            for start in range(0, n_tokens, granule):
                plan.append(GranuleSpec(layer, kind, start, min(start + granule, n_tokens)))
        return plan

    def read_granule_into(self, context_id: str, spec: GranuleSpec, out: np.ndarray) -> None:
        """Fill ``out`` with one granule's rows.

        Device-resident chunks are read with :meth:`StorageDevice.read_into`
        straight into the destination's row slices (one read per chunk);
        host-buffered tail rows are slice-copied after them.  The devices
        keep the count and modelled seconds of those reads.

        Threading rules: this method is safe to run on an IO worker thread
        while another thread projects earlier granules — devices are
        read-only during restoration, the tail buffer is only appended to
        between restores, and ``out`` (a staging slot's rows) is owned
        by this call until it returns.  What is **not** allowed is saving
        into the same context concurrently with restoring it; the engine's
        save/restore lifecycle never does.
        """
        run = self._run(context_id, spec.layer, spec.kind)
        tail = run.tail
        if out.shape != (spec.n_tokens, tail.shape[1]):
            raise ConfigError(
                f"granule destination must be {(spec.n_tokens, tail.shape[1])}, "
                f"got {out.shape}"
            )
        cpc = self.tokens_per_chunk
        if spec.start % cpc != 0 or spec.stop > run.n_tokens:
            raise ConfigError(
                f"granule rows [{spec.start}, {spec.stop}) misaligned or out of range"
            )
        flushed_tokens = run.n_tokens - run.n_tokens % cpc
        for start in range(spec.start, min(spec.stop, flushed_tokens), cpc):
            index = start // cpc
            key = ChunkKey(context_id, spec.layer, index, spec.kind)
            self.array.device_for(index, offset=spec.layer).read_into(
                key, out[start - spec.start : start - spec.start + cpc]
            )
        if spec.stop > flushed_tokens:
            tail_start = max(spec.start, flushed_tokens)
            out[tail_start - spec.start :] = tail[
                tail_start - flushed_tokens : spec.stop - flushed_tokens
            ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def context_bytes(self, context_id: str) -> int:
        """Bytes of chunk capacity allocated to one context."""
        return sum(run.allocated_bytes() for run in self._context(context_id).runs.values())

    def per_token_bytes(self, context_id: str) -> float:
        """Average stored bytes per context token (Table 3's storage cost)."""
        runs = self._context(context_id).runs.values()
        n_tokens = max((run.n_tokens for run in runs), default=0)
        if n_tokens == 0:
            return 0.0
        cpc = self.tokens_per_chunk
        return sum(run.n_tokens * (run.tail.nbytes // cpc) for run in runs) / n_tokens
