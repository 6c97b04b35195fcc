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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, RecoveryError, StateError
from repro.storage.allocator import ChunkAllocator
from repro.storage.array import StorageArray
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey, ChunkLayout
from repro.storage.journal import ContextManifest, ManifestJournal, ManifestState, RunManifest
from repro.storage.streaming import GranuleSpec, StagingRing


def _payload_crc(payload: np.ndarray) -> int:
    """CRC32 of a chunk payload's bytes (row-major, any input layout)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


class _TailBuffer:
    """Preallocated staging buffer for one run's partially filled chunk.

    Exactly one chunk worth of rows, written by slice assignment — the
    hot saving path never builds Python lists of per-row copies nor calls
    ``np.stack`` to flush.
    """

    __slots__ = ("data", "n")

    def __init__(self, tokens_per_chunk: int, width: int, dtype: np.dtype) -> None:
        self.data = np.empty((tokens_per_chunk, width), dtype=dtype)
        self.n = 0


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


class StorageManager:
    """Chunked host storage for contextual LLM states."""

    def __init__(
        self,
        array: StorageArray,
        capacity_bytes: int | None = None,
        tokens_per_chunk: int = CHUNK_TOKENS,
        journal: ManifestJournal | None = None,
        journal_compact_bytes: int = 1 << 20,
    ) -> None:
        if tokens_per_chunk <= 0:
            raise ConfigError("tokens_per_chunk must be positive")
        if journal_compact_bytes <= 0:
            raise ConfigError("journal_compact_bytes must be positive")
        total_capacity = capacity_bytes
        if total_capacity is None:
            total_capacity = sum(d.capacity_bytes for d in array.devices)
        self.array = array
        self.tokens_per_chunk = tokens_per_chunk
        self.allocator = ChunkAllocator(total_capacity)
        #: Optional write-ahead manifest journal; ``None`` leaves the hot
        #: path exactly as before (no journaling, no crash safety).
        self.journal = journal
        #: Log size that triggers a compacted snapshot (checked at seals).
        self.journal_compact_bytes = int(journal_compact_bytes)
        self._meta: dict[str, ContextMeta] = {}
        #: Host-side partially filled tail chunks: run key -> staging buffer.
        self._tails: dict[tuple[str, int, str], _TailBuffer] = {}
        #: Runs whose tail is also persisted on a device as a partial chunk
        #: (written by seal_context; rewritten when the chunk later fills).
        self._sealed_partial: set[tuple[str, int, str]] = set()
        #: Sealed partials whose run has since grown: run key -> (chunk
        #: index, sealed row count).  The stale device copy stays durable
        #: until the refilled chunk rewrites its slot.
        self._stale_partial: dict[tuple[str, int, str], tuple[int, int]] = {}
        #: Durable token log per context (mirrors the journal's records).
        self._token_logs: dict[str, list[int]] = {}
        #: CRC32 of journaled full chunks (compaction snapshot input).
        self._chunk_crcs: dict[ChunkKey, int] = {}

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
        if context_id in self._meta:
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
        self._meta[context_id] = meta
        self._token_logs[context_id] = []
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

    def has_context(self, context_id: str) -> bool:
        return context_id in self._meta

    def meta(self, context_id: str) -> ContextMeta:
        if context_id not in self._meta:
            raise StateError(f"context {context_id!r} not registered")
        return self._meta[context_id]

    def free_context(self, context_id: str) -> int:
        """Drop a context's state everywhere, returning bytes freed.

        A registered context may own no runs at all — a pure-recompute
        partition never stores state, and sessions can close before their
        first save — so freeing is a no-op for the allocator in that case.
        """
        meta = self.meta(context_id)
        # Journal the free *before* any deletion: replaying a prefix that
        # stops short of this record still describes readable chunks,
        # while a prefix that includes it never resurrects a half-deleted
        # context.  Device keys already gone at replay are no
        # contradiction — recovery sweeps, it does not require, freed
        # chunks.
        if self.journal is not None:
            self.journal.append({"op": "free", "context_id": context_id})
        freed = 0
        if self.allocator.has_context_runs(context_id):
            freed = self.allocator.free_context(context_id)
        for key in [k for k in self._tails if k[0] == context_id]:
            del self._tails[key]
            self._sealed_partial.discard(key)
            self._stale_partial.pop(key, None)
        for device in self.array.devices:
            for key in device.keys():
                if isinstance(key, ChunkKey) and key.context_id == context_id:
                    device.delete(key)
        for key in [k for k in self._chunk_crcs if k.context_id == context_id]:
            del self._chunk_crcs[key]
        self._token_logs.pop(context_id, None)
        del self._meta[meta.context_id]
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
        self.allocator.run(context_id, layer, kind)
        if self.journal is not None:
            self.journal.append(
                {"op": "free_run", "context_id": context_id, "layer": layer, "kind": kind}
            )
        freed = self.allocator.free_run(context_id, layer, kind)
        run_key = (context_id, layer, kind)
        del self._tails[run_key]
        self._sealed_partial.discard(run_key)
        self._stale_partial.pop(run_key, None)
        for device in self.array.devices:
            for key in device.keys():
                if (
                    isinstance(key, ChunkKey)
                    and (key.context_id, key.layer, key.kind) == run_key
                ):
                    device.delete(key)
                    self._chunk_crcs.pop(key, None)
        return freed

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self._meta)

    def journal_tokens(self, context_id: str, ids: Sequence[int]) -> None:
        """Append token ids to the context's durable token log.

        The engine calls this *before* appending the block's state rows,
        so the journaled log always covers (is at least as long as) the
        durably readable rows.  Recovery then truncates the log down to
        the durable row count — it never has to invent token ids, and a
        crash between this record and the rows' device writes costs
        nothing but a few spurious log entries.
        """
        self.meta(context_id)
        ids = [int(t) for t in ids]
        if not ids:
            return
        self._token_logs.setdefault(context_id, []).extend(ids)
        if self.journal is not None:
            self.journal.append({"op": "tokens", "context_id": context_id, "ids": ids})

    def token_log(self, context_id: str) -> tuple[int, ...]:
        """The context's logged token ids, oldest first."""
        self.meta(context_id)
        return tuple(self._token_logs.get(context_id, ()))

    # ------------------------------------------------------------------
    # saving (layer-before-token)
    # ------------------------------------------------------------------

    def _layout(self, meta: ContextMeta, kind: str) -> ChunkLayout:
        width = meta.hidden_width if kind == "hidden" else meta.kv_width
        return ChunkLayout(
            tokens_per_chunk=self.tokens_per_chunk,
            bytes_per_token=width * meta.dtype.itemsize,
        )

    def _width(self, meta: ContextMeta, kind: str) -> int:
        return meta.hidden_width if kind == "hidden" else meta.kv_width

    def append(self, context_id: str, layer: int, states: np.ndarray, kind: str = "hidden") -> None:
        """Append per-token state rows for one layer of a context.

        ``states`` has shape ``(n_new_tokens, width)`` where width is the
        hidden size for ``kind="hidden"`` and twice that for ``kind="kv"``
        (K and V concatenated).  Full chunks are flushed to their
        round-robin device; the tail remains host-buffered.
        """
        meta = self.meta(context_id)
        if layer < 0 or layer >= meta.n_layers:
            raise ConfigError(f"layer {layer} out of range for {context_id!r}")
        states = np.asarray(states, dtype=meta.dtype)
        if states.ndim != 2 or states.shape[1] != self._width(meta, kind):
            raise ConfigError(
                f"states must be (n, {self._width(meta, kind)}), got {states.shape}"
            )
        run_key = (context_id, layer, kind)
        if not self.allocator.has_run(context_id, layer, kind):
            self.allocator.open_run(context_id, layer, kind, self._layout(meta, kind))
            self._tails[run_key] = _TailBuffer(
                self.tokens_per_chunk, self._width(meta, kind), meta.dtype
            )
        tail = self._tails[run_key]
        run = self.allocator.run(context_id, layer, kind)
        flushed_tokens = run.n_tokens - tail.n
        if run_key in self._sealed_partial:
            # The tail chunk was persisted at the last seal; it grows now.
            # Its stale device copy is NOT deleted here: the sealed rows
            # stay durable (and journaled) until the refilled chunk — or a
            # re-seal — rewrites the same slot, at which point flush/seal
            # retire it immediately before the replacement write.  A crash
            # anywhere in between loses only the new, never-sealed rows.
            self._stale_partial[run_key] = (
                flushed_tokens // self.tokens_per_chunk,
                tail.n,
            )
            self._sealed_partial.discard(run_key)
        self.allocator.extend(context_id, layer, kind, states.shape[0])
        # Stream the block through: aligned full chunks flush as slice
        # views of the input (the device snapshots them); the remainder
        # lands in the preallocated tail by slice assignment.
        cpc = self.tokens_per_chunk

        def flush_chunk(payload: np.ndarray) -> None:
            nonlocal flushed_tokens
            chunk_index = flushed_tokens // cpc
            key = ChunkKey(context_id, layer, chunk_index, kind)
            device = self.array.device_for(chunk_index, offset=layer)
            stale = self._stale_partial.get(run_key)
            if stale is not None and stale[0] == chunk_index:
                # Retire the sealed partial's stale copy only now, just
                # before its full replacement lands in the same slot.
                device.delete(key)
                del self._stale_partial[run_key]
            device.write(key, payload)
            # Commit point: journal AFTER the device write.  A journaled
            # chunk is always readable; an unjournaled device chunk is an
            # orphan recovery sweeps — never a double-counted token.
            if self.journal is not None:
                crc = _payload_crc(payload)
                self._chunk_crcs[key] = crc
                self.journal.append(
                    {
                        "op": "chunk",
                        "context_id": context_id,
                        "layer": layer,
                        "kind": kind,
                        "index": chunk_index,
                        "crc": crc,
                    }
                )
            flushed_tokens += cpc

        pos = 0
        n_new = states.shape[0]
        while pos < n_new:
            if tail.n == 0 and n_new - pos >= cpc:
                flush_chunk(states[pos : pos + cpc])
                pos += cpc
                continue
            take = min(cpc - tail.n, n_new - pos)
            tail.data[tail.n : tail.n + take] = states[pos : pos + take]
            tail.n += take
            pos += take
            if tail.n == cpc:
                flush_chunk(tail.data)
                tail.n = 0

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
        compacted when its log has outgrown
        :attr:`journal_compact_bytes`.  Unsealed tail rows are the loss
        window a crash pays — bounded by one chunk per (layer, kind) run.
        """
        self.meta(context_id)
        sealed: list[dict] = []
        for run_key in list(self._tails):
            ctx, layer, kind = run_key
            if ctx != context_id:
                continue
            tail = self._tails[run_key]
            if tail.n == 0 or run_key in self._sealed_partial:
                continue
            run = self.allocator.run(ctx, layer, kind)
            flushed_tokens = run.n_tokens - tail.n
            if flushed_tokens % self.tokens_per_chunk != 0:
                raise StateError("tail must start at a chunk boundary")
            chunk_index = flushed_tokens // self.tokens_per_chunk
            key = ChunkKey(ctx, layer, chunk_index, kind)
            device = self.array.device_for(chunk_index, offset=layer)
            stale = self._stale_partial.get(run_key)
            if stale is not None and stale[0] == chunk_index:
                # A previous seal's copy occupies the slot this grown tail
                # rewrites; retire it only now, immediately before its
                # replacement, to keep the durability gap minimal.
                device.delete(key)
                del self._stale_partial[run_key]
            device.write(key, tail.data[: tail.n])
            self._sealed_partial.add(run_key)
            if self.journal is not None:
                sealed.append(
                    {
                        "layer": layer,
                        "kind": kind,
                        "index": chunk_index,
                        "tokens": tail.n,
                        "crc": _payload_crc(tail.data[: tail.n]),
                    }
                )
        if self.journal is not None:
            if sealed:
                self.journal.append(
                    {"op": "seal", "context_id": context_id, "tails": sealed}
                )
            if self.journal.journal_bytes >= self.journal_compact_bytes:
                self.compact_journal()

    # ------------------------------------------------------------------
    # durability: snapshot, compaction, recovery
    # ------------------------------------------------------------------

    def manifest_state(self) -> ManifestState:
        """Snapshot the durable metadata as a replayable manifest.

        Exactly what replaying the journal from genesis would yield:
        journaled full chunks, sealed tails (including a *stale* sealed
        partial whose run has grown but whose slot has not been rewritten
        yet — its device copy is still the durable source of those rows),
        and the token logs.  Unsealed host-tail rows are deliberately
        absent: they are not durable.
        """
        state = ManifestState()
        cpc = self.tokens_per_chunk
        for context_id, meta in self._meta.items():
            crec = ContextManifest(
                n_layers=meta.n_layers,
                hidden_width=meta.hidden_width,
                kv_width=meta.kv_width,
                dtype=str(meta.dtype),
                tokens=list(self._token_logs.get(context_id, [])),
            )
            state.contexts[context_id] = crec
            for layer in range(meta.n_layers):
                for kind in ("hidden", "kv"):
                    if not self.allocator.has_run(context_id, layer, kind):
                        continue
                    run_key = (context_id, layer, kind)
                    run = self.allocator.run(context_id, layer, kind)
                    tail = self._tails[run_key]
                    full = (run.n_tokens - tail.n) // cpc
                    rrec = RunManifest(full_chunks=full)
                    for index in range(full):
                        crc = self._chunk_crcs.get(ChunkKey(context_id, layer, index, kind))
                        if crc is not None:
                            rrec.chunk_crcs[index] = crc
                    if run_key in self._sealed_partial:
                        rrec.sealed_tail_index = full
                        rrec.sealed_tail_tokens = tail.n
                        rrec.sealed_tail_crc = _payload_crc(tail.data[: tail.n])
                    elif run_key in self._stale_partial:
                        index, sealed_rows = self._stale_partial[run_key]
                        rrec.sealed_tail_index = index
                        rrec.sealed_tail_tokens = sealed_rows
                        rrec.sealed_tail_crc = _payload_crc(tail.data[:sealed_rows])
                    crec.runs[(layer, kind)] = rrec
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
        journal_compact_bytes: int = 1 << 20,
        verify_chunks: bool = True,
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
        or loud, never silently wrong.  Unjournaled device chunks
        (orphans of a crash between write and journal append) are swept.

        ``verify_chunks`` re-reads every full chunk to check its CRC;
        disable it to trade integrity checking for recovery speed.  The
        returned manager has ``journal`` attached and starts from a fresh
        compacted snapshot describing exactly the recovered state.
        """
        state = journal.replay()
        manager = cls(
            array,
            capacity_bytes,
            tokens_per_chunk,
            journal=None,
            journal_compact_bytes=journal_compact_bytes,
        )
        cpc = tokens_per_chunk
        live: set[ChunkKey] = set()
        for context_id, crec in state.contexts.items():
            try:
                dtype = np.dtype(crec.dtype)
            except TypeError as exc:
                raise RecoveryError(
                    f"context {context_id!r} has unknown dtype {crec.dtype!r}"
                ) from exc
            meta = ContextMeta(
                context_id=context_id,
                n_layers=crec.n_layers,
                hidden_width=crec.hidden_width,
                kv_width=crec.kv_width,
                dtype=dtype,
            )
            manager._meta[context_id] = meta
            if not crec.runs:
                manager._token_logs[context_id] = list(crec.tokens)
                continue
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
                    if verify_chunks and index in rrec.chunk_crcs:
                        payload, _ = device.read(key)
                        if _payload_crc(payload) != rrec.chunk_crcs[index]:
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
            durable_tokens = min(d for d, _ in candidates.values())
            if len(crec.tokens) < durable_tokens:
                raise RecoveryError(
                    f"context {context_id!r}: token log holds {len(crec.tokens)} "
                    f"ids but {durable_tokens} rows are durable"
                )
            manager._token_logs[context_id] = list(crec.tokens[:durable_tokens])
            # Pass 2: rebuild every run, truncated to the common count.
            for (layer, kind), (_, tail_rows) in candidates.items():
                rrec = crec.runs[(layer, kind)]
                run_key = (context_id, layer, kind)
                manager.allocator.open_run(
                    context_id, layer, kind, manager._layout(meta, kind)
                )
                manager.allocator.extend(context_id, layer, kind, durable_tokens)
                tailbuf = _TailBuffer(cpc, manager._width(meta, kind), meta.dtype)
                manager._tails[run_key] = tailbuf
                full_keep = durable_tokens // cpc
                rem = durable_tokens - full_keep * cpc
                boundary_key = ChunkKey(context_id, layer, full_keep, kind)
                if rem:
                    device = array.device_for(full_keep, offset=layer)
                    if tail_rows is not None and rrec.full_chunks == full_keep:
                        # This run's own sealed tail supplies the rows.
                        tailbuf.data[:rem] = tail_rows[:rem]
                        tailbuf.n = rem
                        if rem == rrec.sealed_tail_tokens:
                            manager._sealed_partial.add(run_key)
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
                        tailbuf.data[:rem] = payload[:rem]
                        tailbuf.n = rem
                        device.delete(boundary_key)
                    else:
                        raise RecoveryError(
                            f"run ({context_id!r}, L{layer}, {kind}): {rem} durable "
                            f"rows have no durable source"
                        )
                for index in range(full_keep):
                    key = ChunkKey(context_id, layer, index, kind)
                    live.add(key)
                    if index in rrec.chunk_crcs:
                        manager._chunk_crcs[key] = rrec.chunk_crcs[index]
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
        if not self.allocator.has_run(context_id, layer, kind):
            return 0
        return self.allocator.run(context_id, layer, kind).n_tokens

    def load_layer(
        self,
        context_id: str,
        layer: int,
        kind: str = "hidden",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fetch one layer's full token run as a ``(n_tokens, width)`` array.

        Preallocates the destination (or fills a caller-provided ``out``,
        e.g. one row-block of the batched restoration input) and reads
        every device-resident chunk directly into its row slice, then
        copies any host-buffered tail rows — no intermediate part list,
        no ``np.concatenate``.
        """
        meta = self.meta(context_id)
        run = self.allocator.run(context_id, layer, kind)
        tail = self._tails[(context_id, layer, kind)]
        n_tokens = run.n_tokens
        width = self._width(meta, kind)
        if out is None:
            out = np.empty((n_tokens, width), dtype=meta.dtype)
        elif out.shape != (n_tokens, width) or out.dtype != meta.dtype:
            raise ConfigError(
                f"out must be {(n_tokens, width)} of {meta.dtype}, "
                f"got {out.shape} of {out.dtype}"
            )
        flushed_tokens = n_tokens - tail.n
        cpc = self.tokens_per_chunk
        for chunk_index in range(flushed_tokens // cpc):
            key = ChunkKey(context_id, layer, chunk_index, kind)
            start = chunk_index * cpc
            self.array.device_for(chunk_index, offset=layer).read_into(
                key, out[start : start + cpc]
            )
        if tail.n:
            out[flushed_tokens:] = tail.data[: tail.n]
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
        self.meta(context_id)
        granule = granule_chunks * self.tokens_per_chunk
        plan: list[GranuleSpec] = []
        for layer in layers:
            n_tokens = self.allocator.run(context_id, layer, kind).n_tokens
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
        straight into the destination's row slices (one read per chunk, so
        IO granularity and device busy accounting match :meth:`load_layer`
        exactly); host-buffered tail rows are slice-copied after them.
        The devices keep the count and modelled seconds of those reads.

        Threading rules: this method is safe to run on an IO worker thread
        while another thread projects earlier granules — devices are
        read-only during restoration, the tail buffer is only appended to
        between restores, and ``out`` (a staging-ring slot slice) is owned
        by this call until it returns.  What is **not** allowed is saving
        into the same context concurrently with restoring it; the engine's
        save/restore lifecycle never does.
        """
        meta = self.meta(context_id)
        run = self.allocator.run(context_id, spec.layer, spec.kind)
        tail = self._tails[(context_id, spec.layer, spec.kind)]
        width = self._width(meta, spec.kind)
        if out.shape != (spec.n_tokens, width):
            raise ConfigError(
                f"granule destination must be {(spec.n_tokens, width)}, got {out.shape}"
            )
        cpc = self.tokens_per_chunk
        if spec.start % cpc != 0 or spec.stop > run.n_tokens:
            raise ConfigError(
                f"granule rows [{spec.start}, {spec.stop}) misaligned or out of range"
            )
        flushed_tokens = run.n_tokens - tail.n
        device_stop = min(spec.stop, flushed_tokens)
        for start in range(spec.start, device_stop, cpc):
            chunk_index = start // cpc
            key = ChunkKey(context_id, spec.layer, chunk_index, spec.kind)
            self.array.device_for(chunk_index, offset=spec.layer).read_into(
                key, out[start - spec.start : start - spec.start + cpc]
            )
        if spec.stop > flushed_tokens:
            tail_start = max(spec.start, flushed_tokens)
            out[tail_start - spec.start :] = tail.data[
                tail_start - flushed_tokens : spec.stop - flushed_tokens
            ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def context_bytes(self, context_id: str) -> int:
        """Bytes of chunk capacity allocated to one context."""
        total = 0
        for layer in range(self.meta(context_id).n_layers):
            for kind in ("hidden", "kv"):
                if self.allocator.has_run(context_id, layer, kind):
                    total += self.allocator.run(context_id, layer, kind).allocated_bytes
        return total

    def per_token_bytes(self, context_id: str) -> float:
        """Average stored bytes per context token (Table 3's storage cost)."""
        meta = self.meta(context_id)
        n_tokens = max(
            (
                self.allocator.run(context_id, layer, kind).n_tokens
                for layer in range(meta.n_layers)
                for kind in ("hidden", "kv")
                if self.allocator.has_run(context_id, layer, kind)
            ),
            default=0,
        )
        if n_tokens == 0:
            return 0.0
        used = sum(
            self.allocator.run(context_id, layer, kind).used_bytes
            for layer in range(meta.n_layers)
            for kind in ("hidden", "kv")
            if self.allocator.has_run(context_id, layer, kind)
        )
        return used / n_tokens
