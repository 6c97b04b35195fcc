"""Per-layer KV cache with exact content semantics and O(1) appends.

The cache stores keys and values per layer as ``(n_tokens, n_kv_heads,
head_dim)`` arrays.  It supports the three ways state enters it in this
reproduction: normal prefill/decode appends, installation from a
restoration (HCache projection, KV offload fetch, or prefix recompute),
and truncation for eviction experiments.

Storage layout: all layers share two 4-D backing buffers of shape
``(n_layers, capacity, n_kv_heads, head_dim)`` that grow by amortized
doubling, so ``append`` is an O(block) slice write instead of an
O(history) ``np.concatenate`` — the difference between O(n) and O(n^2)
decode over a whole conversation.  ``get`` returns zero-copy views of the
live prefix; restoration paths write straight into the backing buffers
(:meth:`KVCache.install_view`) without any defensive copy.

View semantics: views returned by :meth:`get` alias the backing buffer.
An in-capacity ``append`` only writes past the live prefix, so earlier
views keep their content; an ``append`` that triggers a capacity-growth
reallocation detaches them to a stale snapshot of the old buffer, and
``install``/``truncate`` repoint the live region in place.  Callers that
need a durable, current snapshot across any of those operations must
copy, exactly as a real serving system snapshots KV pages before reuse.

Every cache owns its buffers for its whole life: the packed model call
(:meth:`repro.models.transformer.Transformer.forward_fused`) attends each
session against its own cache, so a session joining or leaving a batch
moves no K/V rows.  The one sharing there is, is between the cache a
restore is filling and its :meth:`KVCache.landing_handle` — same rows,
separate lengths — which lets a prompt prefill behind layers that have
landed while later ones still stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, StateError
from repro.models.config import ModelConfig
from repro.models.growth import grown_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.progress import RestoreProgress


class KVCache:
    """Key/value tensors for every layer of one sequence."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._n_layers = config.n_layers
        self._row_shape = (config.n_kv_heads, config.head_dim)
        self._k = np.empty((self._n_layers, 0, *self._row_shape), dtype=np.float32)
        self._v = np.empty_like(self._k)
        self._lens = [0] * self._n_layers
        #: length -> number of layers currently at that length.  Keeping the
        #: histogram as an invariant makes ``__len__`` (called on every
        #: forward pass) O(1) while still detecting layer disagreement.
        self._len_counts: dict[int, int] = {0: self._n_layers}
        #: Set only on a :meth:`landing_handle`: the restore still writing
        #: this cache's history rows.  The packed kernel waits on it per
        #: layer before it appends; ``None`` for every resident cache.
        self.landing: RestoreProgress | None = None

    # ------------------------------------------------------------------
    # lengths
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Token count of the sequence (equal across layers)."""
        if len(self._len_counts) != 1:
            raise StateError(
                f"layers disagree on cached length: {sorted(self._len_counts)}"
            )
        return next(iter(self._len_counts))

    def layer_len(self, layer: int) -> int:
        return self._lens[layer]

    @property
    def capacity(self) -> int:
        """Allocated token capacity shared by every layer."""
        return self._k.shape[1]

    def _set_len(self, layer: int, new_len: int) -> None:
        old = self._lens[layer]
        if new_len == old:
            return
        self._lens[layer] = new_len
        counts = self._len_counts
        remaining = counts[old] - 1
        if remaining:
            counts[old] = remaining
        else:
            del counts[old]
        counts[new_len] = counts.get(new_len, 0) + 1

    def debug_validate(self) -> None:
        """Expensive invariant check (tests / debugging only).

        Recomputes the length histogram from scratch and verifies it
        matches the incrementally maintained one.
        """
        recount: dict[int, int] = {}
        for n in self._lens:
            recount[n] = recount.get(n, 0) + 1
        if recount != self._len_counts:
            raise StateError(
                f"length histogram {self._len_counts} out of sync with {recount}"
            )
        if any(n < 0 or n > self.capacity for n in self._lens):
            raise StateError(f"layer length out of range: {self._lens}")

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
        new_k = np.empty((self._n_layers, new_cap, *self._row_shape), dtype=np.float32)
        new_v = np.empty_like(new_k)
        live = max(self._lens, default=0)
        if live:
            new_k[:, :live] = self._k[:, :live]
            new_v[:, :live] = self._v[:, :live]
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
        """
        if not 0 <= n_tokens <= self.capacity:
            raise ConfigError(
                f"{n_tokens} tokens do not fit the reserved {self.capacity}"
            )
        handle = KVCache(self.config)
        handle._k, handle._v = self._k, self._v
        handle._lens = [n_tokens] * self._n_layers
        handle._len_counts = {n_tokens: self._n_layers}
        handle.landing = landing
        return handle

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_layer(self, layer: int) -> None:
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
        self._set_len(layer, n + m)

    def install(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Replace one layer's content wholesale (restoration path).

        Writes into the preallocated backing buffer — no fresh defensive
        copy is allocated per layer.
        """
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = keys.shape[0]
        self._ensure_capacity(n)
        self._k[layer, :n] = keys
        self._v[layer, :n] = values
        self._set_len(layer, n)

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
        self._set_len(layer, n_tokens)
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
        if n_tokens < 0:
            raise ConfigError("cannot truncate to a negative length")
        for layer in range(self._n_layers):
            if self._lens[layer] > n_tokens:
                self._set_len(layer, n_tokens)

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

    def packed_layer(self, layer: int) -> np.ndarray:
        """One layer's K and V concatenated per token: ``(n, 2 * kv_size)``.

        This is the on-storage format for KV-offloaded layers.
        """
        return self.packed_rows(layer, 0, self._lens[layer])

    def _check_packed(self, packed: np.ndarray) -> np.ndarray:
        packed = np.asarray(packed, dtype=np.float32)
        kv_size = self.config.kv_size
        if packed.ndim != 2 or packed.shape[1] != 2 * kv_size:
            raise ConfigError(f"packed KV must be (n, {2 * kv_size}), got {packed.shape}")
        return packed

    def install_packed(self, layer: int, packed: np.ndarray) -> None:
        """Inverse of :meth:`packed_layer`, writing directly into storage."""
        self._check_layer(layer)
        packed = self._check_packed(packed)
        self.install_view(layer, packed.shape[0])
        self.install_packed_rows(layer, 0, packed)

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

    def install_packed_head_rows(
        self,
        layer: int,
        start: int,
        packed: np.ndarray,
        head_start: int,
        head_stop: int,
    ) -> None:
        """Write KV heads ``[head_start, head_stop)`` of packed K|V rows.

        The tensor-shard merge primitive: ``packed`` carries *full-width*
        rows (the on-storage layout), but only the named KV-head range
        lands in the cache — each tensor rank of a sharded restore owns a
        disjoint range, so the ranks' installs tile the layer without
        overlap.  Pure strided slice copies, so the installed bytes are
        bit-identical to a full-width :meth:`install_packed_rows` of the
        same rows.  The rows must lie inside the layer's live region
        (size it first with :meth:`install_view`).
        """
        self._check_layer(layer)
        packed = self._check_packed(packed)
        n_kv_heads, head_dim = self._row_shape
        if not 0 <= head_start < head_stop <= n_kv_heads:
            raise ConfigError(
                f"head range [{head_start}, {head_stop}) invalid for "
                f"{n_kv_heads} KV heads"
            )
        n = packed.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        kv_size = self.config.kv_size
        k_heads = packed[:, :kv_size].reshape(n, n_kv_heads, head_dim)
        v_heads = packed[:, kv_size:].reshape(n, n_kv_heads, head_dim)
        rows = slice(start, start + n)
        heads = slice(head_start, head_stop)
        self._k[layer, rows, heads] = k_heads[:, heads]
        self._v[layer, rows, heads] = v_heads[:, heads]

    def install_rows(
        self, layer: int, start: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Write already-split K/V rows into ``[start, start + n)`` of a layer.

        The unpacked sibling of :meth:`install_packed_rows`: block-paged
        restores hold K and V as separate ``(n, n_kv_heads, head_dim)``
        pool views and land them here without packing through a scratch
        buffer first.  The rows must lie inside the layer's live region
        (size it first with :meth:`install_view`).
        """
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        n = keys.shape[0]
        if not 0 <= start <= start + n <= self._lens[layer]:
            raise ConfigError(
                f"rows [{start}, {start + n}) outside the layer's "
                f"{self._lens[layer]} live tokens"
            )
        self._k[layer, start : start + n] = keys
        self._v[layer, start : start + n] = values

    # ------------------------------------------------------------------
    # accounting / comparison
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Total live cached bytes across layers (at the array dtype width)."""
        row_bytes = self._k.itemsize * self._row_shape[0] * self._row_shape[1]
        return 2 * row_bytes * sum(self._lens)

    def equals(self, other: "KVCache", atol: float = 0.0) -> bool:
        """Exact (default) or tolerant comparison with another cache."""
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
                if not (np.allclose(k1, k2, atol=atol) and np.allclose(v1, v2, atol=atol)):
                    return False
        return True
