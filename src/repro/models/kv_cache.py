"""Per-layer KV cache with exact content semantics and O(1) appends.

The cache stores keys and values per layer as ``(n_tokens, n_kv_heads,
head_dim)`` arrays.  It supports the three ways state enters it in this
reproduction: normal prefill/decode appends, installation from a
restoration (HCache projection, KV offload fetch, or prefix recompute),
and truncation for eviction experiments.

Storage layout: all layers share two 4-D backing buffers of shape
``(n_layers, capacity, n_kv_heads, head_dim)`` — one **slab pair** —
that grow by amortized doubling, so ``append`` is an O(block) slice
write instead of an O(history) ``np.concatenate`` — the difference
between O(n) and O(n^2) decode over a whole conversation.  ``get``
returns zero-copy views of the live prefix; restoration paths write
straight into the backing buffers (:meth:`KVCache.install_view`)
without any defensive copy.

View semantics: views returned by :meth:`get` alias the backing buffer.
An in-capacity ``append`` only writes past the live prefix, so earlier
views keep their content; an ``append`` that triggers a capacity-growth
reallocation detaches them to a stale snapshot of the old buffer, and
``install_view``/``truncate`` repoint the live region in place.
Callers that need a durable, current snapshot across any of those
operations must copy, exactly as a real serving system snapshots KV
pages before reuse.

Slab lifecycle: a serving engine's caches live on slabs from one
:class:`SlabArena` (the HCache engine owns it).  A restore or a fresh
session takes a slab whose capacity is rounded up to a size class
(:func:`slab_tokens`); a cache that must grow takes the larger slab and
gives the old one back after the copy; when the session is evicted or
closed, its owner calls :meth:`KVCache.release` once, and the next
restore projects into that already-resident memory.  After release the
cache object is dead — every use raises :class:`~repro.errors.StateError`
— because its rows may already be another session's.  A slab has one
owner, the one cache that can give it back: the cache it was taken for,
until a :meth:`KVCache.landing_handle` takes it over for good — the
restore's own cache then gives nothing back.  A failed restore's handle
is released like any other: the failure surfaces only after the restore
has returned, and IO workers write only staging slots, never a slab.
``KVCache(config)`` alone, and a ``copy.deepcopy`` of any cache, has
plain buffers with exact ``reserve`` semantics and no arena.

The packed model call
(:meth:`repro.models.transformer.Transformer.forward_fused`) attends each
session against its own cache, so a session joining or leaving a batch
moves no K/V rows.  The one sharing there is, is between the cache a
restore is filling and its :meth:`KVCache.landing_handle` — same rows,
separate lengths, one owner (the handle) — which lets a prompt prefill
behind layers that have landed while later ones still stream.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, StateError
from repro.models.config import ModelConfig
from repro.models.growth import grown_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.progress import RestoreProgress

#: Every arena size class is a multiple of this many tokens.
SLAB_TOKENS = 64

SlabPair = tuple[np.ndarray, np.ndarray]


def slab_tokens(n_tokens: int) -> int:
    """The arena size class that holds ``n_tokens`` rows.

    Multiples of :data:`SLAB_TOKENS`, eight per doubling from 512 tokens
    up, so a slab wastes under 64 rows or 1/8 of its rows: 540–564
    tokens are all one 576-token class.
    """
    step = max(SLAB_TOKENS, 1 << max(n_tokens.bit_length() - 4, 0))
    return max(1, -(-n_tokens // step)) * step


def _slab_pair(shape: tuple[int, ...]) -> SlabPair:
    """Allocate one K and one V buffer — the only place either is allocated."""
    keys = np.empty(shape, dtype=np.float32)
    return keys, np.empty_like(keys)


class SlabArena:
    """Whole-session K/V slab pairs, recycled between one engine's sessions.

    :meth:`take` hands out a free slab of the requested size class or
    allocates one; :meth:`give` puts a slab back.  The restore driver
    thread takes and the stepping thread gives, so the free lists sit
    behind one lock.  Retention is bounded without a knob: a miss drops every free
    slab (they are all of other classes) before it allocates, so free
    plus taken bytes never exceed the most that were taken at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Free slab pairs by shape.
        self._free: dict[tuple[int, ...], list[SlabPair]] = {}  # guarded-by: _lock
        self._allocations = 0  # guarded-by: _lock

    def take(self, config: ModelConfig, n_tokens: int) -> SlabPair:
        """A slab pair of ``config``'s shape holding at least ``n_tokens`` rows."""
        shape = (config.n_layers, slab_tokens(n_tokens), config.n_kv_heads, config.head_dim)
        with self._lock:
            free = self._free.get(shape)
            if free:
                return free.pop()
            self._free.clear()
            self._allocations += 1
        return _slab_pair(shape)

    def give(self, slab: SlabPair) -> None:
        """Return a slab pair :meth:`take` handed out; nothing may use it after."""
        with self._lock:
            self._free.setdefault(slab[0].shape, []).append(slab)

    def cache(self, config: ModelConfig, n_tokens: int = 0) -> "KVCache":
        """An empty cache that takes its slabs from this arena; it holds one
        covering ``n_tokens`` from the start (none for 0)."""
        cache = KVCache(config)
        cache._arena = self
        if n_tokens:
            cache._k, cache._v = self.take(config, n_tokens)
        return cache

    @property
    def allocations(self) -> int:
        """Slab pairs allocated so far (a hit allocates none)."""
        with self._lock:
            return self._allocations

    @property
    def held_bytes(self) -> int:
        """Bytes of the free slab pairs the arena keeps."""
        with self._lock:
            return sum(2 * k.nbytes for free in self._free.values() for k, _ in free)


class KVCache:
    """Key/value tensors for every layer of one sequence."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._n_layers = config.n_layers
        self._row_shape = (config.n_kv_heads, config.head_dim)
        self._k = np.empty((self._n_layers, 0, *self._row_shape), dtype=np.float32)
        self._v = np.empty_like(self._k)
        #: Where this cache's slabs come from and go back to; ``None``
        #: for plain buffers, and for a cache that owns no slab.
        self._arena: SlabArena | None = None
        self._released = False
        self._lens = [0] * self._n_layers
        #: Set only on a :meth:`landing_handle`: the restore still writing
        #: this cache's history rows.  The packed kernel waits on it per
        #: layer before it appends; ``None`` for every resident cache.
        self.landing: RestoreProgress | None = None

    # ------------------------------------------------------------------
    # lengths
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Token count of the sequence (equal across layers)."""
        self._check_live()
        n = self._lens[0]
        if self._lens.count(n) != self._n_layers:
            raise StateError(f"layers disagree on cached length: {sorted(set(self._lens))}")
        return n

    def layer_len(self, layer: int) -> int:
        self._check_live()
        return self._lens[layer]

    @property
    def capacity(self) -> int:
        """Allocated token capacity shared by every layer."""
        self._check_live()
        return self._k.shape[1]

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------

    def _ensure_capacity(self, min_capacity: int) -> None:
        cap = self.capacity
        if cap >= min_capacity:
            return
        if self.landing is not None and not self.landing.settled:
            # A reallocation would copy rows the restore has not written
            # yet, and strand its later writes in the old buffers.
            raise StateError(
                f"cannot grow past {cap} tokens while a restore is still "
                "landing rows in this cache (reserve the round at restore time)"
            )
        new_cap = grown_capacity(cap, min_capacity)
        if self._arena is None:
            new_k, new_v = _slab_pair((self._n_layers, new_cap, *self._row_shape))
        else:
            new_k, new_v = self._arena.take(self.config, new_cap)
        live = max(self._lens, default=0)
        if live:
            new_k[:, :live] = self._k[:, :live]
            new_v[:, :live] = self._v[:, :live]
        if self._arena is not None and cap:
            self._arena.give((self._k, self._v))
        self._k = new_k
        self._v = new_v

    def reserve(self, n_tokens: int) -> None:
        """Preallocate capacity for ``n_tokens`` across every layer.

        Callers that know the final context length (restoration, a chat
        round with a fixed output budget) use this to skip the doubling
        reallocations entirely.
        """
        if n_tokens < 0:
            raise ConfigError("cannot reserve a negative capacity")
        self._ensure_capacity(n_tokens)

    def landing_handle(self, n_tokens: int, landing: RestoreProgress) -> "KVCache":
        """A second handle over this cache's row storage, for the thread
        that steps while a restore still fills rows ``[0, n_tokens)``.

        The handle has lengths of its own — every layer at ``n_tokens``
        from the start — so the two threads share no mutable metadata:
        the restore keeps writing (and finally returns) this cache, the
        stepping thread appends rows ``>= n_tokens`` through the handle,
        and layer ``L`` of the handle may be read only after
        ``landing.wait_layer(L)``.  Capacity must already cover the
        round: the handle refuses to grow until the restore has ended.
        It takes this cache's slab over: only its :meth:`release` gives it back.
        """
        if not 0 <= n_tokens <= self.capacity:
            raise ConfigError(
                f"{n_tokens} tokens do not fit the reserved {self.capacity}"
            )
        handle = KVCache(self.config)
        handle._k, handle._v = self._k, self._v
        handle._arena, self._arena = self._arena, None
        handle._lens = [n_tokens] * self._n_layers
        handle.landing = landing
        return handle

    def release(self) -> None:
        """Give this cache's slab back to its arena, once, from its owner.

        Every later use of this object raises :class:`StateError`: the
        rows may already be another session's.  A cache with no arena
        has nothing to give back and stays usable.
        """
        self._check_live()
        if self._arena is None:
            return
        if self.capacity:
            self._arena.give((self._k, self._v))
        self._arena = None
        self._released = True

    def __deepcopy__(self, memo: dict) -> "KVCache":
        """A copy has plain buffers: it never takes from or gives to an arena."""
        self._check_live()
        clone = KVCache(self.config)
        clone._k, clone._v = self._k.copy(), self._v.copy()
        clone._lens = list(self._lens)
        return clone

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_live(self) -> None:
        if self._released:
            raise StateError(
                "this cache gave its slab back (its session was evicted or "
                "closed); its rows may belong to another session now"
            )

    def _check_layer(self, layer: int) -> None:
        self._check_live()
        if not 0 <= layer < self._n_layers:
            raise ConfigError(f"layer {layer} out of range")

    def _check_shape(self, tensor: np.ndarray, name: str) -> np.ndarray:
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim != 3 or tensor.shape[1:] != self._row_shape:
            raise ConfigError(
                f"{name} must be (n, {self.config.n_kv_heads}, {self.config.head_dim}), "
                f"got {tensor.shape}"
            )
        return tensor

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Append newly computed K/V rows for one layer (O(block))."""
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = self._lens[layer]
        m = keys.shape[0]
        self._ensure_capacity(n + m)
        self._k[layer, n : n + m] = keys
        self._v[layer, n : n + m] = values
        self._lens[layer] = n + m

    def install_view(self, layer: int, n_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """Size one layer to ``n_tokens`` and return writable K/V views.

        The restoration hot path uses this to project straight into cache
        storage; the previous content of the layer is undefined until the
        caller fills the views.
        """
        self._check_layer(layer)
        if n_tokens < 0:
            raise ConfigError("cannot install a negative token count")
        self._ensure_capacity(n_tokens)
        self._lens[layer] = n_tokens
        return self._k[layer, :n_tokens], self._v[layer, :n_tokens]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` zero-copy views for one layer."""
        self._check_layer(layer)
        n = self._lens[layer]
        return self._k[layer, :n], self._v[layer, :n]

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def truncate(self, n_tokens: int) -> None:
        """Drop cached state beyond ``n_tokens`` on every layer.

        Capacity is retained; only the live lengths shrink (O(layers)).
        """
        self._check_live()
        if n_tokens < 0:
            raise ConfigError("cannot truncate to a negative length")
        self._lens = [min(n, n_tokens) for n in self._lens]

    def clear(self) -> None:
        """Evict everything (state moves to host storage in HCache)."""
        self.truncate(0)

    # ------------------------------------------------------------------
    # packed (on-storage) format
    # ------------------------------------------------------------------

    def packed_rows(self, layer: int, start: int, stop: int) -> np.ndarray:
        """K and V of rows ``[start, stop)`` concatenated per token.

        Shape ``(stop - start, 2 * kv_size)`` — K elements then V
        elements, flattened per token.  Packing only the requested rows
        keeps incremental saving O(block) instead of O(history).
        """
        keys, values = self.get(layer)
        if not 0 <= start <= stop <= keys.shape[0]:
            raise ConfigError(
                f"rows [{start}, {stop}) out of range for {keys.shape[0]} cached tokens"
            )
        n = stop - start
        kv_size = self.config.kv_size
        out = np.empty((n, 2 * kv_size), dtype=np.float32)
        out[:, :kv_size] = keys[start:stop].reshape(n, kv_size)
        out[:, kv_size:] = values[start:stop].reshape(n, kv_size)
        return out

    def _check_packed(self, packed: np.ndarray) -> np.ndarray:
        packed = np.asarray(packed, dtype=np.float32)
        kv_size = self.config.kv_size
        if packed.ndim != 2 or packed.shape[1] != 2 * kv_size:
            raise ConfigError(f"packed KV must be (n, {2 * kv_size}), got {packed.shape}")
        return packed

    def install_packed_rows(self, layer: int, start: int, packed: np.ndarray) -> None:
        """Write packed K|V rows into ``[start, start + n)`` of a layer.

        The rows must lie inside the layer's live region (size it first
        with :meth:`install_view`).  This is the chunk-granular inverse of
        :meth:`packed_rows` — the streamed restore installs each arriving
        granule of a KV-offloaded layer through it, so the packed-layout
        knowledge stays in one place.
        """
        self._check_layer(layer)
        packed = self._check_packed(packed)
        n = packed.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        kv_size = self.config.kv_size
        self._k[layer, start : start + n].reshape(n, kv_size)[...] = packed[:, :kv_size]
        self._v[layer, start : start + n].reshape(n, kv_size)[...] = packed[:, kv_size:]

    # ------------------------------------------------------------------
    # accounting / comparison
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Total live cached bytes across layers (at the array dtype width)."""
        self._check_live()
        row_bytes = self._k.itemsize * self._row_shape[0] * self._row_shape[1]
        return 2 * row_bytes * sum(self._lens)

    def equals(self, other: "KVCache", atol: float = 0.0) -> bool:
        """Exact (default) comparison with another cache, or within an
        absolute ``atol`` per element (no relative term: values near 10 get
        no wider band than values near 0)."""
        if self.config.n_layers != other.config.n_layers:
            return False
        for layer in range(self.config.n_layers):
            k1, v1 = self.get(layer)
            k2, v2 = other.get(layer)
            if k1.shape != k2.shape or v1.shape != v2.shape:
                return False
            if atol == 0.0:
                if not (np.array_equal(k1, k2) and np.array_equal(v1, v2)):
                    return False
            else:
                if not (
                    np.allclose(k1, k2, rtol=0.0, atol=atol)
                    and np.allclose(v1, v2, rtol=0.0, atol=atol)
                ):
                    return False
        return True
