"""Concurrency layer for the restore pipeline.

:mod:`repro.runtime` turns the chunk-streamed restoration of §4.1 from a
structurally overlapped (but single-threaded) pipeline into one whose
IO/compute overlap is real wall clock:

- :class:`IOWorkerPool` — shareable background threads that fill staging
  buffers (device ``read_into`` memcpys and emulated-latency sleeps both
  release the GIL).
- :func:`drain_granules` — the one restore loop, called once per restore
  over one plan of hidden and KV granules: reads run ahead (on pool
  workers, or inline without an executor) while the calling thread
  projects or installs in plan order, so every pool size stays
  bit-exact with the naive reference.
- :class:`RestoreExecutor` — the pool and the in-flight window a
  restoration drains with; also restores several contexts in the
  background for the serving layer, one at a time in start order.
- :class:`RestoreProgress` — the per-layer hand-over between a streaming
  restore and the serving iteration: the restore posts each layer as its
  last row lands, the packed model call waits per layer, a failure wakes
  the waiter with a typed error.

The inline single-threaded drain remains the default everywhere; pass an
executor to opt in.  See ``docs/ARCHITECTURE.md`` for the pipeline
timeline.
"""

from repro.runtime.executor import RestoreExecutor, drain_granules
from repro.runtime.io_pool import IOWorkerPool
from repro.runtime.progress import RestoreProgress

__all__ = [
    "IOWorkerPool",
    "RestoreExecutor",
    "RestoreProgress",
    "drain_granules",
]
