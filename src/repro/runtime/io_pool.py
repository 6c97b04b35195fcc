"""Background IO worker pool for the threaded restore pipeline.

The pool is the "transmission stream" of §4.1 made executable: a restore
submits its granule reads
(:meth:`repro.storage.manager.StorageManager.read_granule_into`) and keeps
projecting on its own thread while workers fill staging buffers in the
background.  The operations a worker runs — ``np.copyto`` into a staging
slot, and (under latency emulation) ``time.sleep`` of the modelled device
seconds — all release the GIL, so the overlap is real wall clock, not just
pipeline structure.

A serving engine creates one pool and every restore it runs draws from
it, one restore at a time (:class:`repro.runtime.executor.RestoreExecutor`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable

from repro.errors import ConfigError, StateError


class IOWorkerPool:
    """A small, shareable pool of background IO threads.

    Thin wrapper over :class:`concurrent.futures.ThreadPoolExecutor` that
    adds validation, task accounting, and context-manager lifetime.  Tasks
    must be *leaf* work (device reads, host copies): a task never blocks
    on another task's future, so the pool is deadlock-free at any size —
    including ``size=1``, which degenerates to an ordered background
    queue and is the recommended setting for single-core hosts.
    """

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ConfigError("IO worker pool needs at least one worker")
        self.size = size
        self._executor = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="hcache-io"
        )
        self._lock = threading.Lock()
        self._submitted = 0  # guarded-by: _lock
        self._dispatch_s = 0.0  # guarded-by: _lock
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "IOWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def tasks_submitted(self) -> int:
        """Total read tasks ever submitted (contention telemetry)."""
        with self._lock:
            return self._submitted

    @property
    def dispatch_s(self) -> float:
        """Cumulative wall time spent inside :meth:`submit`.

        The executor-overhead accounting of every restore drained through
        this pool: queue handoff to the worker threads (lock + deque +
        condition wake).
        """
        with self._lock:
            return self._dispatch_s

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting tasks; optionally wait for in-flight ones."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    # -- work ----------------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Queue ``fn(*args, **kwargs)`` on a worker; returns its future.

        The caller owns any buffer reachable from ``args`` until the
        future resolves (the staging-slot ownership rule).
        """
        if self._closed:
            raise StateError("IO worker pool is shut down")
        t0 = perf_counter()
        with self._lock:
            self._submitted += 1
        future = self._executor.submit(fn, *args, **kwargs)
        with self._lock:
            self._dispatch_s += perf_counter() - t0
        return future
