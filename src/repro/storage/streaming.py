"""Chunk-granular streaming reads for the restoration pipeline (§4.1).

HCache's restoration overlaps hidden-state transmission with the K/V
projection GEMMs: compute starts when the *first* chunks arrive, not when
the whole layer has landed.  This module provides the pieces the numeric
engine needs to actually execute that shape:

- :class:`StagingRing` — a small ring of preallocated staging buffers the
  storage manager reads device chunks into (the functional analogue of
  the pinned host buffers a real pipeline DMAs through).  With the
  default depth of 2 the consumer can hold one granule while the next
  one's read is already in flight (double buffering).
- :class:`LayerChunk` — one streamed granule: a row range of one layer's
  token run and a zero-copy view of its staging slot.
- :class:`GranuleSpec` — where one granule sits in a layer's token run,
  without its data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


class StagingRing:
    """Ring of preallocated ``(granule_tokens, width)`` staging buffers.

    ``acquire`` hands out slots round-robin; a slot's previous content is
    overwritten, so a view yielded from slot *i* stays valid only until
    ``depth - 1`` further acquisitions — exactly the lookahead window a
    double-buffered consumer needs (read granule ``k+1`` while granule
    ``k`` is still being projected), and no more.

    Threading rules (what the threaded restore executor relies on):
    ``acquire`` itself must be called from a single coordinating thread —
    it is plain Python state, not a concurrent queue.  A slot *may* then
    be **filled from another thread** (an IO worker running
    :meth:`repro.storage.manager.StorageManager.read_granule_into`); the
    consumer must not touch the slot until that fill completes, and the
    coordinator must not re-``acquire`` the slot (i.e. advance ``depth``
    acquisitions past it) until the consumer is done with it.  With at
    most ``F`` granules outstanding (filled-or-filling but not yet
    consumed), a ring of ``depth >= F + 1`` makes slot reuse safe.
    """

    def __init__(
        self,
        depth: int,
        granule_tokens: int,
        width: int,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        if depth < 2:
            raise ConfigError("staging ring needs depth >= 2 for double buffering")
        if granule_tokens <= 0 or width <= 0:
            raise ConfigError("staging slots need positive token count and width")
        self.granule_tokens = granule_tokens
        self.width = width
        self._slots = [
            np.empty((granule_tokens, width), dtype=np.dtype(dtype)) for _ in range(depth)
        ]
        self._next = 0

    @property
    def depth(self) -> int:
        return len(self._slots)

    def acquire(self) -> np.ndarray:
        """Return the next slot (its previous content becomes invalid)."""
        slot = self._slots[self._next]
        self._next = (self._next + 1) % len(self._slots)
        return slot


@dataclass(frozen=True)
class GranuleSpec:
    """Location of one granule in a layer's token run — no data attached.

    The storage manager's :meth:`~repro.storage.manager.StorageManager.granule_plan`
    enumerates these without touching any device, which is what lets the
    threaded restore executor submit the corresponding reads to worker
    threads ahead of consumption while keeping the consumption order (and
    therefore the numerics) identical to the single-threaded stream.

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


@dataclass(frozen=True)
class LayerChunk:
    """One streamed granule of a layer's token run.

    Attributes:
        layer: Model layer the rows belong to.
        kind: ``"hidden"`` or ``"kv"``.
        start: First token row covered (inclusive).
        stop: Last token row covered (exclusive).
        data: ``(stop - start, width)`` view of a staging-ring slot.
            Valid until the ring recycles the slot (``depth - 1`` more
            granules); consumers that look further ahead must copy.
    """

    layer: int
    kind: str
    start: int
    stop: int
    data: np.ndarray

    @property
    def n_tokens(self) -> int:
        return self.stop - self.start

