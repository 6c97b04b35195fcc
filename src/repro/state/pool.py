"""A refcounted pool of fixed-size KV + hidden-state blocks.

The pool owns three stacked backing arrays — K and V blocks of shape
``(capacity_blocks, n_layers, block_tokens, n_kv_heads, head_dim)`` and
hidden-state blocks of shape ``(capacity_blocks, n_layers, block_tokens,
hidden_width)`` — and hands out block ids.  Every block id carries a
refcount equal to the number of session block tables referencing it
(:class:`repro.state.BlockStateStore` maintains that equality and the
property harness asserts it after every operation).

Lifecycle of a block:

- ``allocate`` takes a free block (or evicts, below) at refcount 1.
- ``ref``/``unref`` track table references; a block that drops to
  refcount 0 is *freed immediately* if it was never committed, or parked
  as an eviction candidate if it was.
- ``commit`` publishes a full block under its hash-chained prefix key
  (:mod:`repro.state.keys`); ``lookup`` is the prefix-cache probe new
  sessions use on admission.
- Eviction is refcount-aware LRU over committed blocks only
  (:class:`repro.cache.lru.PinnedLRU`): blocks pinned by a live refcount
  are never victims; the refcount-0 tail goes first, least recently used
  first.  When every block is pinned, allocation raises
  :class:`~repro.errors.CapacityError` — shared state is never torn out
  from under a live table.

Threading: all refcount/index/eviction metadata is guarded by ``_lock``
(the store's prefix lookups may run during another session's restore).
Block *content* is single-writer by construction — only a table holding
the block at refcount 1 writes rows (copy-on-write above this layer
guarantees it) — so content reads need no lock once a block is resident.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.cache.lru import PinnedLRU
from repro.errors import CapacityError, ConfigError, StateError


class PoolStats:
    """Counters for pool behaviour (monotonic, informational).

    Attributes:
        evictions: Committed refcount-0 blocks reclaimed for reuse.
        lookup_hits: Prefix-key probes that found a committed block.
        lookup_misses: Prefix-key probes that found nothing.
    """

    __slots__ = ("evictions", "lookup_hits", "lookup_misses")

    def __init__(self) -> None:
        self.evictions = 0
        self.lookup_hits = 0
        self.lookup_misses = 0


class BlockPool:
    """Refcounted fixed-size state blocks with content-hash lookup."""

    def __init__(
        self,
        n_layers: int,
        block_tokens: int,
        n_kv_heads: int,
        head_dim: int,
        hidden_width: int,
        capacity_blocks: int,
    ) -> None:
        if min(n_layers, block_tokens, n_kv_heads, head_dim, hidden_width) <= 0:
            raise ConfigError("pool geometry must be positive in every dimension")
        if capacity_blocks <= 0:
            raise ConfigError("pool needs at least one block")
        self.n_layers = n_layers
        self.block_tokens = block_tokens
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.hidden_width = hidden_width
        self.capacity_blocks = capacity_blocks
        #: Per-token KV element count of one layer (K and V concatenated),
        #: the packed width the storage manager stores for ``kind="kv"``.
        self.kv_width = 2 * n_kv_heads * head_dim
        self._k = np.zeros(
            (capacity_blocks, n_layers, block_tokens, n_kv_heads, head_dim),
            dtype=np.float32,
        )
        self._v = np.zeros_like(self._k)
        self._hidden = np.zeros(
            (capacity_blocks, n_layers, block_tokens, hidden_width), dtype=np.float32
        )
        self._lock = threading.Lock()
        self._refcounts = [0] * capacity_blocks  # guarded-by: _lock
        self._free = list(range(capacity_blocks - 1, -1, -1))  # guarded-by: _lock
        self._committed: dict[str, int] = {}  # guarded-by: _lock
        self._key_of: dict[int, str] = {}  # guarded-by: _lock
        self._lru = PinnedLRU()  # guarded-by: _lock
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    # allocation / refcounts
    # ------------------------------------------------------------------

    def allocate(self) -> int:
        """Take a block at refcount 1, evicting a refcount-0 LRU victim if full.

        Raises:
            CapacityError: when every block is referenced by a live table
                (nothing is evictable).
        """
        with self._lock:
            if self._free:
                block_id = self._free.pop()
            else:
                victim = self._lru.pop_lru()
                if victim is None:
                    raise CapacityError(
                        f"all {self.capacity_blocks} blocks are pinned by live tables"
                    )
                block_id = int(victim)
                del self._committed[self._key_of.pop(block_id)]
                self.stats.evictions += 1
            if self._refcounts[block_id] != 0:
                raise StateError(f"block {block_id} allocated at nonzero refcount")
            self._refcounts[block_id] = 1
        # Content is zeroed outside the lock: the block is exclusively
        # owned from the moment its refcount became 1, and deterministic
        # zero fill keeps content-equality checks stable for partially
        # filled blocks.
        self._k[block_id] = 0.0
        self._v[block_id] = 0.0
        self._hidden[block_id] = 0.0
        return block_id

    def _check_block(self, block_id: int) -> None:
        if not 0 <= block_id < self.capacity_blocks:
            raise ConfigError(f"block {block_id} out of range")

    def ref(self, block_id: int) -> None:
        """Add one table reference to a reachable block.

        Reachable means refcount > 0 *or* committed (a refcount-0
        committed block is an eviction candidate a dedup hit or admission
        may still adopt — doing so re-pins it).
        """
        self._check_block(block_id)
        with self._lock:
            count = self._refcounts[block_id]
            if count < 0:
                raise StateError(f"block {block_id} refcount is negative")
            if count == 0:
                if block_id not in self._key_of:
                    raise StateError(f"cannot ref dead block {block_id}")
                self._lru.pin(block_id)
            self._refcounts[block_id] = count + 1

    def unref(self, block_id: int) -> None:
        """Drop one table reference.

        At refcount 0 an uncommitted block returns to the free list at
        once (nothing can ever find it again); a committed block stays
        resident as an eviction candidate so a future admission can still
        hit its prefix key.
        """
        self._check_block(block_id)
        with self._lock:
            if self._refcounts[block_id] <= 0:
                raise StateError(f"cannot unref dead block {block_id}")
            self._refcounts[block_id] -= 1
            if self._refcounts[block_id] == 0:
                if block_id in self._key_of:
                    self._lru.unpin(block_id)
                else:
                    self._free.append(block_id)

    def refcount(self, block_id: int) -> int:
        self._check_block(block_id)
        with self._lock:
            return self._refcounts[block_id]

    # ------------------------------------------------------------------
    # the content-hash prefix index
    # ------------------------------------------------------------------

    def commit(self, block_id: int, key: str) -> None:
        """Publish a full block under its hash-chained prefix key."""
        self._check_block(block_id)
        if not key:
            raise ConfigError("cannot commit under an empty key")
        with self._lock:
            if self._refcounts[block_id] <= 0:
                raise StateError(f"cannot commit dead block {block_id}")
            if key in self._committed:
                raise StateError(f"key {key[:12]}… already committed")
            if block_id in self._key_of:
                raise StateError(f"block {block_id} already committed")
            self._committed[key] = block_id
            self._key_of[block_id] = key
            self._lru.add(block_id, pinned=True)

    def lookup(self, key: str) -> int | None:
        """Prefix-cache probe: the committed block for ``key``, or ``None``.

        A hit refreshes the block's LRU recency but does NOT take a
        reference — the caller refs it when it actually adopts the block
        into a table.
        """
        with self._lock:
            block_id = self._committed.get(key)
            if block_id is None:
                self.stats.lookup_misses += 1
                return None
            self.stats.lookup_hits += 1
            self._lru.touch(block_id)
            return block_id

    def committed_key(self, block_id: int) -> str | None:
        """The key a block is committed under, or ``None`` (private block)."""
        self._check_block(block_id)
        with self._lock:
            return self._key_of.get(block_id)

    def adopt_committed(self, key: str) -> int | None:
        """Atomically look up ``key`` and take a reference on the hit.

        The admission fast path: probe and ref under one lock hold, so a
        concurrent ``unref``-to-zero between the two can never hand the
        admitting session an eviction candidate that just got reclaimed.
        Returns the block id, or ``None`` on a miss.
        """
        with self._lock:
            block_id = self._committed.get(key)
            if block_id is None:
                self.stats.lookup_misses += 1
                return None
            self.stats.lookup_hits += 1
            self._lru.touch(block_id)
            if self._refcounts[block_id] == 0:
                self._lru.pin(block_id)
            self._refcounts[block_id] += 1
            return block_id

    # ------------------------------------------------------------------
    # content access
    # ------------------------------------------------------------------

    def kv_views(self, block_id: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(block_tokens, n_kv_heads, head_dim)`` K/V views."""
        self._check_block(block_id)
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer {layer} out of range")
        return self._k[block_id, layer], self._v[block_id, layer]

    def hidden_view(self, block_id: int, layer: int) -> np.ndarray:
        """Zero-copy ``(block_tokens, hidden_width)`` hidden-state view."""
        self._check_block(block_id)
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer {layer} out of range")
        return self._hidden[block_id, layer]

    def copy_block(self, src_id: int) -> int:
        """Copy-on-write: allocate a private duplicate of ``src_id``.

        The caller owns arranging refcounts (unref the shared source,
        keep the copy at its fresh refcount 1).  The copy is *not*
        committed even if the source was — a diverging tail is private
        until it fills under its own chain key.
        """
        self._check_block(src_id)
        with self._lock:
            if self._refcounts[src_id] <= 0:
                raise StateError(f"cannot copy dead block {src_id}")
        dst_id = self.allocate()
        self._k[dst_id] = self._k[src_id]
        self._v[dst_id] = self._v[src_id]
        self._hidden[dst_id] = self._hidden[src_id]
        return dst_id

    def blocks_equal(self, a: int, b: int) -> bool:
        """Bit-exact content comparison of two blocks (all layers, kinds)."""
        self._check_block(a)
        self._check_block(b)
        return (
            np.array_equal(self._k[a], self._k[b])
            and np.array_equal(self._v[a], self._v[b])
            and np.array_equal(self._hidden[a], self._hidden[b])
        )

    # ------------------------------------------------------------------
    # accounting / introspection
    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def live_blocks(self) -> int:
        """Blocks currently referenced by at least one table."""
        with self._lock:
            return sum(1 for r in self._refcounts if r > 0)

    @property
    def resident_blocks(self) -> int:
        """Referenced blocks plus committed refcount-0 eviction candidates."""
        with self._lock:
            return self.capacity_blocks - len(self._free)

    def evictable_blocks(self) -> tuple[int, ...]:
        """Committed refcount-0 block ids, least recently used first."""
        with self._lock:
            return tuple(int(b) for b in self._lru.unpinned_lru_order())

    def block_nbytes(self) -> int:
        """Bytes of backing storage one block spans (all layers, kinds)."""
        return int(self._k[0].nbytes + self._v[0].nbytes + self._hidden[0].nbytes)

    def debug_validate(self) -> None:
        """Expensive cross-structure invariant check (tests only)."""
        with self._lock:
            free = set(self._free)
            if len(free) != len(self._free):
                raise StateError("free list holds duplicates")
            for block_id in free:
                if self._refcounts[block_id] != 0:
                    raise StateError(f"free block {block_id} has a nonzero refcount")
                if block_id in self._key_of:
                    raise StateError(f"free block {block_id} is still committed")
            if set(self._committed.values()) != set(self._key_of):
                raise StateError("committed index and key map disagree")
            for key, block_id in self._committed.items():
                if self._key_of.get(block_id) != key:
                    raise StateError(f"block {block_id} key mapping is inconsistent")
                if block_id not in self._lru:
                    raise StateError(f"committed block {block_id} missing from LRU")
                pinned = self._lru.is_pinned(block_id)
                if pinned != (self._refcounts[block_id] > 0):
                    raise StateError(
                        f"block {block_id} LRU pin disagrees with refcount"
                    )
            for block_id in range(self.capacity_blocks):
                if self._refcounts[block_id] < 0:
                    raise StateError(f"block {block_id} refcount is negative")
                if (
                    self._refcounts[block_id] == 0
                    and block_id not in free
                    and block_id not in self._key_of
                ):
                    raise StateError(f"block {block_id} leaked (dead but not free)")
