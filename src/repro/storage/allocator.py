"""Chunk slot allocation and accounting.

The allocator owns the mapping from (context, layer, kind) to chunk slots
and enforces the array's capacity.  It exists separately from the manager
so the accounting invariants — no double allocation, frees restore
capacity, internal fragmentation bounded by one chunk per run — can be
tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, StateError
from repro.storage.chunk import ChunkKey, ChunkLayout


@dataclass
class ChunkRun:
    """The chunk slots backing one (context, layer, kind) token run.

    Attributes:
        layout: Geometry of this run's chunks.
        n_tokens: Tokens currently stored in the run.
        n_chunks: Chunk slots allocated (``layout.chunks_for(n_tokens)``).
    """

    layout: ChunkLayout
    n_tokens: int = 0
    n_chunks: int = 0

    @property
    def allocated_bytes(self) -> int:
        return self.n_chunks * self.layout.chunk_bytes

    @property
    def used_bytes(self) -> int:
        return self.layout.used_bytes(self.n_tokens)

    @property
    def internal_fragmentation(self) -> int:
        return self.allocated_bytes - self.used_bytes


@dataclass
class AllocatorStats:
    """Aggregate allocator accounting."""

    allocated_bytes: int = 0
    used_bytes: int = 0
    n_runs: int = 0
    n_chunks: int = 0
    peak_allocated_bytes: int = field(default=0)

    @property
    def internal_fragmentation(self) -> int:
        return self.allocated_bytes - self.used_bytes


class ChunkAllocator:
    """Tracks chunk slots for every stored token run against a byte budget."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise AllocationError("allocator capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._runs: dict[tuple[str, int, str], ChunkRun] = {}
        self._stats = AllocatorStats()

    @property
    def stats(self) -> AllocatorStats:
        return self._stats

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._stats.allocated_bytes

    def run(self, context_id: str, layer: int, kind: str) -> ChunkRun:
        key = (context_id, layer, kind)
        if key not in self._runs:
            raise StateError(f"no run registered for {key}")
        return self._runs[key]

    def has_run(self, context_id: str, layer: int, kind: str) -> bool:
        return (context_id, layer, kind) in self._runs

    def open_run(self, context_id: str, layer: int, kind: str, layout: ChunkLayout) -> ChunkRun:
        """Create an empty token run.

        Raises:
            StateError: if the run already exists (runs grow by
                :meth:`extend`, never by re-opening).
        """
        key = (context_id, layer, kind)
        if key in self._runs:
            raise StateError(f"run {key} already open")
        run = ChunkRun(layout=layout)
        self._runs[key] = run
        self._stats.n_runs += 1
        return run

    def extend(self, context_id: str, layer: int, kind: str, n_tokens: int) -> list[ChunkKey]:
        """Grow a run by ``n_tokens``, allocating chunk slots as needed.

        Returns the keys of any *newly allocated* chunks so the manager can
        direct their placement.

        Raises:
            AllocationError: if capacity would be exceeded; the run is left
                unchanged in that case.
        """
        if n_tokens < 0:
            raise AllocationError("cannot extend by a negative token count")
        run = self.run(context_id, layer, kind)
        new_total = run.n_tokens + n_tokens
        needed_chunks = run.layout.chunks_for(new_total)
        extra_chunks = needed_chunks - run.n_chunks
        extra_bytes = extra_chunks * run.layout.chunk_bytes
        if extra_bytes > self.free_bytes:
            raise AllocationError(
                f"extend of run ({context_id}, L{layer}, {kind}) needs {extra_bytes} B "
                f"but only {self.free_bytes} B are free"
            )
        new_keys = [
            ChunkKey(context_id, layer, run.n_chunks + i, kind) for i in range(extra_chunks)
        ]
        run.n_chunks = needed_chunks
        used_before = run.used_bytes
        run.n_tokens = new_total
        self._stats.allocated_bytes += extra_bytes
        self._stats.used_bytes += run.used_bytes - used_before
        self._stats.n_chunks += extra_chunks
        self._stats.peak_allocated_bytes = max(
            self._stats.peak_allocated_bytes, self._stats.allocated_bytes
        )
        return new_keys

    def has_context_runs(self, context_id: str) -> bool:
        """Whether any run (any layer, any kind) exists for a context."""
        return any(k[0] == context_id for k in self._runs)

    def free_run(self, context_id: str, layer: int, kind: str) -> int:
        """Release one run, returning the bytes freed."""
        run = self.run(context_id, layer, kind)
        del self._runs[(context_id, layer, kind)]
        self._stats.allocated_bytes -= run.allocated_bytes
        self._stats.used_bytes -= run.used_bytes
        self._stats.n_chunks -= run.n_chunks
        self._stats.n_runs -= 1
        return run.allocated_bytes

    def free_context(self, context_id: str) -> int:
        """Release every run of a context, returning the bytes freed."""
        keys = [k for k in self._runs if k[0] == context_id]
        if not keys:
            raise StateError(f"context {context_id!r} has no runs")
        return sum(self.free_run(*key) for key in keys)

    def context_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for context_id, _, _ in self._runs:
            seen.setdefault(context_id, None)
        return tuple(seen)
