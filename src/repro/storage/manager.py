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

Each context is one record (its shape, its token log and its runs), and
each (layer, kind) run is one record: the host tail buffer, the stored
row count, how many tail rows the last seal put on a device, and the
journaled chunk CRCs.  Everything the manager knows — the byte count
against capacity, the durable manifest, a recovered manager — is read
from or written to these records.

Durability (optional): with a :class:`~repro.storage.journal.
ManifestJournal` attached, every metadata mutation is journaled and
:meth:`StorageManager.recover` rebuilds a manager from journal + device
chunks alone after a crash.  The commit-point ordering is strict — device
write first, journal record second — so a journaled chunk is always
readable and an unjournaled device chunk is an orphan recovery sweeps; a
crash between the two can therefore never double-count tokens.  Sealed
partial tails follow the same discipline: when appends grow a sealed
partial, its stale device copy is *kept* (still journaled, still durable)
until the moment the refilled chunk rewrites that slot, shrinking the
crash window to the single delete+write+journal step that write-once
devices force.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import AllocationError, ConfigError, RecoveryError, StateError
from repro.storage.array import StorageArray
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey
from repro.storage.journal import ContextManifest, ManifestJournal, ManifestState, RunManifest
from repro.storage.streaming import GranuleSpec, StagingRing

#: Journal log size that triggers a compacted snapshot (checked at seals).
JOURNAL_COMPACT_BYTES = 1 << 20

_KINDS = ("hidden", "kv")


def _payload_crc(payload: np.ndarray) -> int:
    """CRC32 of a chunk payload's bytes (row-major, any input layout)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


class _Run:
    """One (context, layer, kind) token run.

    Rows ``[0, n_tokens - n_tokens % tokens_per_chunk)`` sit on the
    devices as full chunks; the rest are the first rows of ``tail``, a
    preallocated one-chunk host buffer written by slice assignment.  The
    first ``device_tail_rows`` tail rows are also on a device, in the
    current tail slot, as the copy the last seal wrote: all of them while
    the run is sealed, fewer once appends have grown it (that stale copy
    stays durable until the refilled chunk or the next seal rewrites the
    slot).  ``crcs`` holds the journaled CRC of each full chunk by index,
    and stays empty without a journal.
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
    ) -> ContextMeta:
        """Declare a context before saving any of its state.

        ``kv_width`` is the packed K|V row width of KV-offloaded layers;
        ``None`` means the MHA width, ``2 * hidden_width``.
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
        self._contexts[context_id] = _Context(meta)
        if self.journal is not None:
            self.journal.append(
                {
                    "op": "register",
                    "context_id": context_id,
                    "n_layers": n_layers,
                    "hidden_width": hidden_width,
                    "kv_width": kv_width,
                    "dtype": str(meta.dtype),
                }
            )
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

    def open_run(self, context_id: str, layer: int, kind: str = "hidden") -> None:
        """Start an empty (layer, kind) run; a no-op if it exists.

        :meth:`append` opens a run on first use.  Opening every run a
        context will store at registration puts their journal records
        ahead of its first ``tokens`` record, so a crash before any of
        its rows reach a device recovers the context at zero tokens
        instead of refusing the store.
        """
        self._open_run(self._context(context_id), layer, kind)

    def _open_run(self, ctx: _Context, layer: int, kind: str) -> _Run:
        run = ctx.runs.get((layer, kind))
        if run is not None:
            return run
        meta = ctx.meta
        if layer < 0 or layer >= meta.n_layers:
            raise ConfigError(f"layer {layer} out of range for {meta.context_id!r}")
        if kind not in _KINDS:
            raise ConfigError(f"unknown run kind {kind!r}")
        run = _Run(self.tokens_per_chunk, self._width(meta, kind), meta.dtype)
        ctx.runs[(layer, kind)] = run
        if self.journal is not None:
            self.journal.append(
                {"op": "run", "context_id": meta.context_id, "layer": layer, "kind": kind}
            )
        return run

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

    def free_run(self, context_id: str, layer: int, kind: str = "hidden") -> int:
        """Drop one layer's run of a context, returning bytes freed.

        For a run the serving scheme no longer reads (a store adopted
        under a scheme that token-sources the layer): left in place it
        would stop growing, and :meth:`recover` — which cuts every run of
        a context back to the shortest — would roll the whole context
        back to it.  Journaled before any deletion, like
        :meth:`free_context`.
        """
        run = self._run(context_id, layer, kind)
        if self.journal is not None:
            self.journal.append(
                {"op": "free_run", "context_id": context_id, "layer": layer, "kind": kind}
            )
        for device in self.array.devices:
            for key in device.keys():
                if (
                    isinstance(key, ChunkKey)
                    and key.context_id == context_id
                    and (key.layer, key.kind) == (layer, kind)
                ):
                    device.delete(key)
        del self._contexts[context_id].runs[(layer, kind)]
        freed = run.allocated_bytes()
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

    @staticmethod
    def _width(meta: ContextMeta, kind: str) -> int:
        return meta.hidden_width if kind == "hidden" else meta.kv_width

    def append(self, context_id: str, layer: int, states: np.ndarray, kind: str = "hidden") -> None:
        """Append per-token state rows for one layer of a context.

        ``states`` has shape ``(n_new_tokens, width)`` where width is the
        hidden size for ``kind="hidden"`` and twice that for ``kind="kv"``
        (K and V concatenated).  Full chunks are flushed to their
        round-robin device; the tail remains host-buffered.

        Capacity for every chunk the block starts is checked before any
        row lands, so a refused append changes nothing.  Rows count as
        stored only once they land — in the tail, or on a device for the
        rows that complete a chunk — so a failed device write leaves the
        run at its last full chunk, and a retry of the remaining rows
        continues from there.
        """
        ctx = self._context(context_id)
        run = ctx.runs.get((layer, kind))
        states = np.asarray(states, dtype=ctx.meta.dtype)
        width = self._width(ctx.meta, kind) if run is None else run.tail.shape[1]
        if states.ndim != 2 or states.shape[1] != width:
            raise ConfigError(f"states must be (n, {width}), got {states.shape}")
        if run is None:
            run = self._open_run(ctx, layer, kind)
        tail = run.tail
        cpc = self.tokens_per_chunk
        n_new = states.shape[0]
        rows = run.n_tokens % cpc
        new_chunks = -(-(rows + n_new) // cpc) - (rows > 0)
        if new_chunks * tail.nbytes > self.capacity_bytes - self.allocated_bytes:
            raise AllocationError(
                f"append to run ({context_id}, L{layer}, {kind}) needs "
                f"{new_chunks * tail.nbytes} B but only "
                f"{self.capacity_bytes - self.allocated_bytes} B are free"
            )
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

    def _flush_chunk(
        self, context_id: str, layer: int, kind: str, run: _Run, payload: np.ndarray
    ) -> None:
        """Write the run's next full chunk; its rows count once it lands."""
        cpc = self.tokens_per_chunk
        index = run.n_tokens // cpc
        key = ChunkKey(context_id, layer, index, kind)
        device = self.array.device_for(index, offset=layer)
        if run.device_tail_rows:
            # Retire the last seal's copy of this slot only now, just
            # before its full replacement lands in the same slot.
            device.delete(key)
            run.device_tail_rows = 0
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

    def seal_context(self, context_id: str) -> None:
        """Flush every partially filled tail chunk to its device.

        Called when a conversation round ends and the context's GPU state
        is evicted — afterwards all state also lives on the storage
        devices.  The host buffer keeps the tail rows so a later round can
        grow the partial chunk (it is then rewritten, write-once devices
        cannot append in place).

        With a journal attached, sealing is also the durability boundary
        for partial tails: one ``seal`` record commits every tail written
        here (chunk index, row count, payload CRC), and the journal is
        compacted when its log has outgrown :data:`JOURNAL_COMPACT_BYTES`.
        Unsealed tail rows are the loss window a crash pays — bounded by
        one chunk per (layer, kind) run.
        """
        ctx = self._context(context_id)
        cpc = self.tokens_per_chunk
        sealed: list[dict] = []
        for (layer, kind), run in ctx.runs.items():
            rows = run.n_tokens % cpc
            if rows == run.device_tail_rows:
                continue  # no tail, or the device copy is already current
            index = run.n_tokens // cpc
            key = ChunkKey(context_id, layer, index, kind)
            device = self.array.device_for(index, offset=layer)
            if run.device_tail_rows:
                # A previous seal's copy occupies the slot this grown tail
                # rewrites; retire it only now, immediately before its
                # replacement, to keep the durability gap minimal.
                device.delete(key)
                run.device_tail_rows = 0
            device.write(key, run.tail[:rows])
            run.device_tail_rows = rows
            if self.journal is not None:
                sealed.append(
                    {
                        "layer": layer,
                        "kind": kind,
                        "index": index,
                        "tokens": rows,
                        "crc": _payload_crc(run.tail[:rows]),
                    }
                )
        if self.journal is not None:
            if sealed:
                self.journal.append(
                    {"op": "seal", "context_id": context_id, "tails": sealed}
                )
            if self.journal.journal_bytes >= JOURNAL_COMPACT_BYTES:
                self.compact_journal()

    # ------------------------------------------------------------------
    # durability: snapshot, compaction, recovery
    # ------------------------------------------------------------------

    def manifest_state(self) -> ManifestState:
        """Snapshot the durable metadata as a replayable manifest.

        Exactly what replaying the journal from genesis would yield:
        every opened run, its journaled full chunks, sealed tails
        (including a *stale* sealed partial whose run has grown but whose
        slot has not been rewritten yet — its device copy is still the
        durable source of those rows), and the token logs.  Unsealed
        host-tail rows are deliberately absent: they are not durable.
        """
        state = ManifestState()
        cpc = self.tokens_per_chunk
        for context_id, ctx in self._contexts.items():
            meta = ctx.meta
            crec = ContextManifest(
                n_layers=meta.n_layers,
                hidden_width=meta.hidden_width,
                kv_width=meta.kv_width,
                dtype=str(meta.dtype),
                tokens=list(ctx.tokens),
            )
            state.contexts[context_id] = crec
            for run_key, run in ctx.runs.items():
                rrec = RunManifest(full_chunks=run.n_tokens // cpc, chunk_crcs=dict(run.crcs))
                if run.device_tail_rows:
                    rrec.sealed_tail_index = rrec.full_chunks
                    rrec.sealed_tail_tokens = run.device_tail_rows
                    rrec.sealed_tail_crc = _payload_crc(run.tail[: run.device_tail_rows])
                crec.runs[run_key] = rrec
        return state

    def compact_journal(self) -> None:
        """Write a compacted snapshot and reset the journal log."""
        if self.journal is None:
            raise StateError("storage manager has no journal attached")
        self.journal.compact(self.manifest_state())

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
        nothing of the dead manager's memory survives.  The journal
        replays into a :class:`ManifestState`; each context's durable
        token count is the *minimum over its runs* of ``full_chunks x
        tokens_per_chunk + sealed tail`` — a run's sealed tail counting
        only if its device copy exists and matches the journaled CRC (a
        retired-but-never-rewritten partial rolls that run back to its
        chunk boundary).  Runs longer than the common durable count are
        truncated: a boundary chunk's surviving prefix is salvaged into
        the host tail buffer, excess device chunks are dropped, and the
        token log is cut to exactly the durable rows.  Journal/device
        contradictions (a journaled chunk missing, a CRC mismatch, a
        token log shorter than the durable rows) raise
        :class:`~repro.errors.RecoveryError` — recovery is conservative
        or loud, never silently wrong.  Every journaled full chunk is
        re-read to check its CRC.  Unjournaled device chunks (orphans of
        a crash between write and journal append) are swept.

        The returned manager has ``journal`` attached and starts from a
        fresh compacted snapshot describing exactly the recovered state.
        """
        state = journal.replay()
        manager = cls(array, capacity_bytes, tokens_per_chunk)
        cpc = tokens_per_chunk
        live: set[ChunkKey] = set()
        for context_id, crec in state.contexts.items():
            try:
                dtype = np.dtype(crec.dtype)
            except TypeError as exc:
                raise RecoveryError(
                    f"context {context_id!r} has unknown dtype {crec.dtype!r}"
                ) from exc
            ctx = _Context(
                ContextMeta(
                    context_id=context_id,
                    n_layers=crec.n_layers,
                    hidden_width=crec.hidden_width,
                    kv_width=crec.kv_width,
                    dtype=dtype,
                )
            )
            manager._contexts[context_id] = ctx
            # Pass 1: per-run durable candidates, checking the devices.
            candidates: dict[tuple[int, str], tuple[int, np.ndarray | None]] = {}
            for (layer, kind), rrec in crec.runs.items():
                if layer < 0 or layer >= crec.n_layers:
                    raise RecoveryError(
                        f"context {context_id!r} journals layer {layer} beyond "
                        f"its {crec.n_layers} layers"
                    )
                for index in range(rrec.full_chunks):
                    key = ChunkKey(context_id, layer, index, kind)
                    device = array.device_for(index, offset=layer)
                    if key not in device:
                        raise RecoveryError(
                            f"journaled chunk {key} is missing from its device"
                        )
                    crc = rrec.chunk_crcs.get(index)
                    if crc is not None and _payload_crc(device.read(key)[0]) != crc:
                        raise RecoveryError(
                            f"chunk {key} payload fails its journaled checksum"
                        )
                durable = rrec.full_chunks * cpc
                tail_rows: np.ndarray | None = None
                if rrec.sealed_tail_tokens > 0:
                    if rrec.sealed_tail_index != rrec.full_chunks:
                        raise RecoveryError(
                            f"run ({context_id!r}, L{layer}, {kind}): sealed tail "
                            f"at chunk {rrec.sealed_tail_index} but "
                            f"{rrec.full_chunks} full chunks are journaled"
                        )
                    key = ChunkKey(context_id, layer, rrec.full_chunks, kind)
                    device = array.device_for(rrec.full_chunks, offset=layer)
                    if key in device:
                        payload, _ = device.read(key)
                        if (
                            payload.shape[0] != rrec.sealed_tail_tokens
                            or _payload_crc(payload) != rrec.sealed_tail_crc
                        ):
                            raise RecoveryError(
                                f"sealed tail {key} mismatches its journal record"
                            )
                        durable += rrec.sealed_tail_tokens
                        tail_rows = payload
                    # else: the partial was retired for a rewrite that never
                    # completed — those rows are gone; the run rolls back to
                    # its chunk boundary (the documented rewrite window).
                candidates[(layer, kind)] = (durable, tail_rows)
            durable_tokens = min((d for d, _ in candidates.values()), default=len(crec.tokens))
            if len(crec.tokens) < durable_tokens:
                raise RecoveryError(
                    f"context {context_id!r}: token log holds {len(crec.tokens)} "
                    f"ids but {durable_tokens} rows are durable"
                )
            ctx.tokens = list(crec.tokens[:durable_tokens])
            # Pass 2: rebuild every run, truncated to the common count.
            full_keep, rem = divmod(durable_tokens, cpc)
            for (layer, kind), (_, tail_rows) in candidates.items():
                rrec = crec.runs[(layer, kind)]
                run = _Run(cpc, cls._width(ctx.meta, kind), dtype)
                ctx.runs[(layer, kind)] = run
                run.n_tokens = durable_tokens
                manager.allocated_bytes += run.allocated_bytes()
                boundary_key = ChunkKey(context_id, layer, full_keep, kind)
                if rem:
                    device = array.device_for(full_keep, offset=layer)
                    if tail_rows is not None and rrec.full_chunks == full_keep:
                        # This run's own sealed tail supplies the rows.
                        run.tail[:rem] = tail_rows[:rem]
                        if rem == rrec.sealed_tail_tokens:
                            run.device_tail_rows = rem
                            live.add(boundary_key)
                        else:
                            # A shorter run truncated the context below this
                            # sealed tail; its device copy holds too many
                            # rows — drop it, the next seal rewrites.
                            device.delete(boundary_key)
                    elif full_keep < rrec.full_chunks:
                        # The durable cut lands inside one of this run's
                        # full chunks: salvage the prefix into the host
                        # tail; the over-long chunk cannot stay (reads and
                        # reseals assume exact shapes).
                        payload, _ = device.read(boundary_key)
                        run.tail[:rem] = payload[:rem]
                        device.delete(boundary_key)
                    else:
                        raise RecoveryError(
                            f"run ({context_id!r}, L{layer}, {kind}): {rem} durable "
                            f"rows have no durable source"
                        )
                for index in range(full_keep):
                    live.add(ChunkKey(context_id, layer, index, kind))
                    if index in rrec.chunk_crcs:
                        run.crcs[index] = rrec.chunk_crcs[index]
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

    def staging_ring(
        self,
        context_id: str,
        kind: str = "hidden",
        depth: int = 2,
        granule_chunks: int = 1,
    ) -> StagingRing:
        """Build a staging ring sized for one context's streamed reads.

        ``granule_chunks`` storage chunks are coalesced into each streamed
        granule: IO stays chunk-granular (every device chunk is a separate
        ``read_into``), but the consumer sees fewer, larger row blocks,
        which keeps the per-granule projection overhead amortized.
        """
        if granule_chunks <= 0:
            raise ConfigError("granule_chunks must be positive")
        meta = self.meta(context_id)
        return StagingRing(
            depth,
            granule_chunks * self.tokens_per_chunk,
            self._width(meta, kind),
            meta.dtype,
        )

    def granule_plan(
        self,
        context_id: str,
        layers: Sequence[int],
        kind: str = "hidden",
        granule_chunks: int = 1,
    ) -> list[GranuleSpec]:
        """Enumerate the granules a streamed restore of ``layers`` covers.

        Pure metadata — no device is touched.  The specs come back layers
        in the given order, row ranges ascending within each layer — the
        order every consumer must project in to stay bit-exact with the
        reference restore.  The restore loop
        (:func:`repro.runtime.executor.drain_granules`) walks this plan to
        issue :meth:`read_granule_into` calls ahead of consumption.
        """
        if granule_chunks <= 0:
            raise ConfigError("granule_chunks must be positive")
        granule = granule_chunks * self.tokens_per_chunk
        plan: list[GranuleSpec] = []
        for layer in layers:
            n_tokens = self._run(context_id, layer, kind).n_tokens
            for gstart in range(0, n_tokens, granule):
                plan.append(
                    GranuleSpec(
                        layer=layer,
                        kind=kind,
                        start=gstart,
                        stop=min(gstart + granule, n_tokens),
                    )
                )
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
        between restores, and ``out`` (a staging-ring slot slice) is owned
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
