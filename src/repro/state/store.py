"""The block-paged state store: prefix sharing, CoW, and dedup on commit.

:class:`BlockStateStore` sits between the serving engine and a
:class:`~repro.state.BlockPool`.  Each session owns a
:class:`~repro.state.BlockTable`; state rows (per-layer hidden states
and/or packed KV, the same representations the storage tier persists)
enter through :meth:`append` and land in fixed-size pool blocks.

Sharing model:

- **Commit + dedup.**  When a block fills, its hash-chained prefix key
  (:mod:`repro.state.keys`) is derived and the pool's content index is
  probed.  On a hit the payloads are compared bit-for-bit before the
  table swaps its private block for the published one — a chain
  collision, or numerically divergent state for the same tokens (e.g. a
  different GEMM blocking), keeps a private block rather than aliasing
  silently.  On a miss the block is committed under the key.
- **Admission.**  :meth:`admit` walks a new session's prefix keys left
  to right and adopts every committed hit, so a restore only has to
  read the non-shared suffix from storage.
- **Copy-on-write.**  Appends into a tail block that is shared
  (refcount > 1) or published first duplicate it; a block with
  refcount > 1 is never written.
- **Graceful fallback.**  A non-contiguous append (the session has
  storage-resident tokens the store never saw) or pool exhaustion
  releases the session's table and returns ``False`` — the caller keeps
  its private, unshared path and bit-exactness is never at risk.

Concurrency contract: session-table operations take the store's own
lock, because concurrent restores of *distinct* sessions (the threaded
executor's ``restore_contexts_async``) admit and publish in parallel.  Block
*content* writes stay single-writer per block — only a table holding a
block at refcount 1 writes rows — and the pool's metadata lock keeps its
index consistent underneath.
"""

from __future__ import annotations

import threading
from typing import Mapping

import numpy as np

from repro.errors import CapacityError, ConfigError, StateError
from repro.state.keys import GENESIS_KEY, chain_key, prefix_block_keys
from repro.state.pool import BlockPool
from repro.state.table import BlockTable

#: Row representations a block carries, matching the storage tier's
#: ``kind`` vocabulary: ``hidden`` rows are ``(n, hidden_width)``;
#: ``kv`` rows are packed ``(n, 2 * n_kv_heads * head_dim)`` in
#: :meth:`repro.models.kv_cache.KVCache.packed_rows` layout.
ROW_KINDS = ("hidden", "kv")


class StoreStats:
    """Monotonic counters describing sharing behaviour."""

    __slots__ = (
        "admitted_shared_tokens",
        "capacity_fallbacks",
        "committed_blocks",
        "contiguity_fallbacks",
        "cow_copies",
        "dedup_hits",
        "hash_conflicts",
    )

    def __init__(self) -> None:
        #: Tokens served from the pool (not storage) at admission time.
        self.admitted_shared_tokens = 0
        #: Sessions dropped to the unshared path by pool exhaustion.
        self.capacity_fallbacks = 0
        #: Full blocks published under a fresh prefix key.
        self.committed_blocks = 0
        #: Sessions dropped to the unshared path by a non-contiguous append.
        self.contiguity_fallbacks = 0
        #: Tail blocks duplicated before a write (copy-on-write).
        self.cow_copies = 0
        #: Full blocks replaced by an already-published identical block.
        self.dedup_hits = 0
        #: Key hits whose payload differed bit-wise (kept private).
        self.hash_conflicts = 0


class BlockStateStore:
    """Per-session block tables over one shared refcounted pool."""

    def __init__(self, pool: BlockPool) -> None:
        self.pool = pool
        self.block_tokens = pool.block_tokens
        self._sessions_lock = threading.Lock()
        self._tables: dict[str, BlockTable] = {}  # guarded-by: _sessions_lock
        #: Per-session chain keys, one per *full* block (including private
        #: ones — the chain extends over conflicts so later keys stay
        #: well defined).
        self._chains: dict[str, list[str]] = {}  # guarded-by: _sessions_lock
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------

    def is_tracked(self, session_id: str) -> bool:
        with self._sessions_lock:
            return session_id in self._tables

    def session_ids(self) -> tuple[str, ...]:
        with self._sessions_lock:
            return tuple(self._tables)

    def track(self, session_id: str) -> None:
        """Register a fresh session with an empty table."""
        with self._sessions_lock:
            if session_id in self._tables:
                raise StateError(f"session {session_id!r} already tracked")
            self._tables[session_id] = BlockTable(self.block_tokens)
            self._chains[session_id] = []

    def admit(self, session_id: str, token_ids: np.ndarray | list[int]) -> int:
        """Register a session, adopting every committed shared-prefix block.

        Walks the hash chain of ``token_ids`` left to right and stops at
        the first key miss.  Returns the number of tokens now resident in
        the pool (a multiple of ``block_tokens``); the caller restores
        only ``token_ids[shared:]`` from storage.
        """
        ids = [int(t) for t in np.asarray(token_ids, dtype=np.int64)]
        keys = prefix_block_keys(ids, self.block_tokens)
        with self._sessions_lock:
            if session_id in self._tables:
                raise StateError(f"session {session_id!r} already tracked")
            table = BlockTable(self.block_tokens)
            hits = 0
            for key in keys:
                block_id = self.pool.adopt_committed(key)
                if block_id is None:
                    break
                table.blocks.append(block_id)
                hits += 1
            table.n_tokens = hits * self.block_tokens
            table.token_ids = ids[: table.n_tokens]
            self._tables[session_id] = table
            self._chains[session_id] = keys[:hits]
            self.stats.admitted_shared_tokens += table.n_tokens
            return table.n_tokens

    def fork(self, parent: str, child: str) -> None:
        """Give ``child`` a table referencing every parent block (tail too).

        Both sessions may keep appending; the first to write the shared
        partial tail pays the copy-on-write duplication.
        """
        with self._sessions_lock:
            if child in self._tables:
                raise StateError(f"session {child!r} already tracked")
            table = self._table(parent)
            for block_id in table.blocks:
                self.pool.ref(block_id)
            self._tables[child] = BlockTable(
                self.block_tokens,
                blocks=list(table.blocks),
                n_tokens=table.n_tokens,
                token_ids=list(table.token_ids),
            )
            self._chains[child] = list(self._chains[parent])

    def release(self, session_id: str) -> None:
        """Drop a session's table, unreferencing every block (idempotent)."""
        with self._sessions_lock:
            self._release_locked(session_id)

    def _release_locked(self, session_id: str) -> None:  # holds: _sessions_lock
        table = self._tables.pop(session_id, None)
        if table is None:
            return
        self._chains.pop(session_id, None)
        for block_id in table.blocks:
            self.pool.unref(block_id)

    def _table(self, session_id: str) -> BlockTable:  # holds: _sessions_lock
        table = self._tables.get(session_id)
        if table is None:
            raise StateError(f"session {session_id!r} not tracked")
        return table

    def table(self, session_id: str) -> BlockTable:
        """The session's table (read-only by convention; tests inspect it)."""
        with self._sessions_lock:
            return self._table(session_id)

    def resident_tokens(self, session_id: str) -> int:
        """Tokens of the session resident in pool blocks."""
        with self._sessions_lock:
            return self._table(session_id).n_tokens

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(
        self,
        session_id: str,
        start: int,
        token_ids: np.ndarray | list[int],
        rows: Mapping[tuple[int, str], np.ndarray],
    ) -> bool:
        """Extend a session's resident prefix with state rows.

        ``rows`` maps ``(layer, kind)`` to the new tokens' rows in the
        stored representation (see :data:`ROW_KINDS`); ``start`` is the
        session's token offset of the first new row.  Returns ``True``
        when the rows landed; ``False`` when the session fell back to the
        unshared path (non-contiguous append or pool exhaustion), after
        which it is no longer tracked.
        """
        ids = [int(t) for t in np.asarray(token_ids, dtype=np.int64)]
        checked = self._checked_rows(rows, len(ids))
        with self._sessions_lock:
            table = self._table(session_id)
            if start != table.n_tokens:
                self.stats.contiguity_fallbacks += 1
                self._release_locked(session_id)
                return False
            if not ids:
                return True
            try:
                self._write_rows(session_id, table, ids, checked)
            except CapacityError:
                self.stats.capacity_fallbacks += 1
                self._release_locked(session_id)
                return False
            return True

    def _checked_rows(
        self, rows: Mapping[tuple[int, str], np.ndarray], n_tokens: int
    ) -> list[tuple[int, str, np.ndarray]]:
        checked: list[tuple[int, str, np.ndarray]] = []
        for (layer, kind), arr in rows.items():
            if not 0 <= layer < self.pool.n_layers:
                raise ConfigError(f"layer {layer} out of range")
            if kind not in ROW_KINDS:
                raise ConfigError(f"unknown row kind {kind!r}")
            arr = np.asarray(arr, dtype=np.float32)
            width = self.pool.hidden_width if kind == "hidden" else self.pool.kv_width
            if arr.shape != (n_tokens, width):
                raise ConfigError(
                    f"{kind} rows for layer {layer} must be ({n_tokens}, {width}), "
                    f"got {arr.shape}"
                )
            checked.append((layer, kind, arr))
        return checked

    def _write_rows(  # holds: _sessions_lock
        self,
        session_id: str,
        table: BlockTable,
        ids: list[int],
        rows: list[tuple[int, str, np.ndarray]],
    ) -> None:
        block_tokens = self.block_tokens
        kv_half = self.pool.kv_width // 2
        written = 0
        n = len(ids)
        while written < n:
            fill = table.n_tokens % block_tokens
            if fill == 0:
                block_id = self.pool.allocate()
                table.blocks.append(block_id)
            else:
                block_id = self._writable_tail(table)
            take = min(block_tokens - fill, n - written)
            for layer, kind, arr in rows:
                chunk = arr[written : written + take]
                if kind == "hidden":
                    self.pool.hidden_view(block_id, layer)[fill : fill + take] = chunk
                else:
                    k_rows, v_rows = self.pool.kv_views(block_id, layer)
                    shape = (take, self.pool.n_kv_heads, self.pool.head_dim)
                    k_rows[fill : fill + take] = chunk[:, :kv_half].reshape(shape)
                    v_rows[fill : fill + take] = chunk[:, kv_half:].reshape(shape)
            table.token_ids.extend(ids[written : written + take])
            table.n_tokens += take
            written += take
            if fill + take == block_tokens:
                self._seal_full_block(session_id, table)

    def _writable_tail(self, table: BlockTable) -> int:  # holds: _sessions_lock
        """The tail block, made exclusively writable (copy-on-write)."""
        block_id = table.blocks[-1]
        if (
            self.pool.refcount(block_id) > 1
            or self.pool.committed_key(block_id) is not None
        ):
            private = self.pool.copy_block(block_id)
            self.pool.unref(block_id)
            table.blocks[-1] = private
            self.stats.cow_copies += 1
            return private
        return block_id

    def _seal_full_block(self, session_id: str, table: BlockTable) -> None:  # holds: _sessions_lock
        """Derive the just-filled block's chain key; dedup or publish it."""
        chain = self._chains[session_id]
        index = len(chain)
        start = index * self.block_tokens
        prev = chain[-1] if chain else GENESIS_KEY
        key = chain_key(prev, table.token_ids[start : start + self.block_tokens])
        chain.append(key)
        block_id = table.blocks[index]
        if self.pool.committed_key(block_id) is not None:
            # Adopted (or already deduplicated) shared block — nothing to
            # publish.  Defensive: a full block a table writes is private
            # by the copy-on-write rule, so this should be unreachable.
            return
        existing = self.pool.lookup(key)
        if existing is None:
            self.pool.commit(block_id, key)
            self.stats.committed_blocks += 1
        elif self.pool.blocks_equal(existing, block_id):
            self.pool.ref(existing)
            table.blocks[index] = existing
            self.pool.unref(block_id)
            self.stats.dedup_hits += 1
        else:
            # Same chain key, different payload: a hash collision or
            # numerically divergent state for identical tokens.  The
            # block stays private and unpublished; sharing degrades,
            # correctness does not.
            self.stats.hash_conflicts += 1

    # ------------------------------------------------------------------
    # reads (restore path)
    # ------------------------------------------------------------------

    def hidden_rows(self, session_id: str, index: int, layer: int) -> np.ndarray:
        """Resident hidden rows of block ``index``: ``(rows, hidden_width)``."""
        with self._sessions_lock:
            table = self._table(session_id)
            start, stop = table.block_span(index)
            view = self.pool.hidden_view(table.blocks[index], layer)
            return view[: stop - start]

    def kv_rows(
        self, session_id: str, index: int, layer: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resident K/V rows of block ``index``: ``(rows, heads, head_dim)``."""
        with self._sessions_lock:
            table = self._table(session_id)
            start, stop = table.block_span(index)
            k_rows, v_rows = self.pool.kv_views(table.blocks[index], layer)
            return k_rows[: stop - start], v_rows[: stop - start]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def logical_blocks(self) -> int:
        """Block references summed over every table (with multiplicity)."""
        with self._sessions_lock:
            return sum(len(t.blocks) for t in self._tables.values())

    @property
    def physical_blocks(self) -> int:
        """Distinct pool blocks referenced by at least one table."""
        with self._sessions_lock:
            return len({b for t in self._tables.values() for b in t.blocks})

    def dedup_ratio(self) -> float:
        """Logical over physical blocks (1.0 when nothing is shared)."""
        with self._sessions_lock:
            logical = sum(len(t.blocks) for t in self._tables.values())
            physical = len({b for t in self._tables.values() for b in t.blocks})
        if physical == 0:
            return 1.0
        return logical / physical

    def state_bytes_saved(self) -> int:
        """Backing bytes sharing avoids versus fully private tables."""
        with self._sessions_lock:
            logical = sum(len(t.blocks) for t in self._tables.values())
            physical = len({b for t in self._tables.values() for b in t.blocks})
        return (logical - physical) * self.pool.block_nbytes()

    # ------------------------------------------------------------------
    # invariants (tests)
    # ------------------------------------------------------------------

    def debug_validate(self) -> None:
        """Cross-check refcounts, reachability, and chain keys (tests only).

        Assumes this store is the pool's only client, which lets it
        assert the central invariant: every block's refcount equals the
        number of tables referencing it.
        """
        with self._sessions_lock:
            counts: dict[int, int] = {}
            for table in self._tables.values():
                for block_id in table.blocks:
                    counts[block_id] = counts.get(block_id, 0) + 1
            for block_id in range(self.pool.capacity_blocks):
                expected = counts.get(block_id, 0)
                actual = self.pool.refcount(block_id)
                if actual != expected:
                    raise StateError(
                        f"block {block_id} refcount {actual} != "
                        f"{expected} referencing tables"
                    )
            for session_id, table in self._tables.items():
                if len(table.token_ids) != table.n_tokens:
                    raise StateError(f"session {session_id!r} token log out of sync")
                if len(table.blocks) != -(-table.n_tokens // self.block_tokens):
                    raise StateError(f"session {session_id!r} table size out of sync")
                chain = self._chains[session_id]
                if chain != prefix_block_keys(table.token_ids, self.block_tokens):
                    raise StateError(f"session {session_id!r} chain keys diverged")
        self.pool.debug_validate()
