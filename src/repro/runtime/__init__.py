"""Concurrency layer for the restore pipeline.

:mod:`repro.runtime` turns the chunk-streamed restoration of §4.1 from a
structurally overlapped (but single-threaded) pipeline into one whose
IO/compute overlap is real wall clock:

- :class:`IOWorkerPool` — shareable background threads that fill staging
  buffers (device ``read_into`` memcpys and emulated-latency sleeps both
  release the GIL).
- :func:`drain_granules` — the one restore loop: granule reads run ahead
  (on pool workers, or inline without an executor) while the calling
  thread projects in plan order, so every pool size and shard shape stays
  bit-exact with the naive reference.
- :class:`RestoreExecutor` — the pool, the ``(pipeline, tensor)`` shard
  shape (:func:`partition_layers` stages x KV-head ranges) and the
  per-stage in-flight window a restoration drains with; also restores
  multiple contexts concurrently through one shared pool for the serving
  layer.
- :class:`RestoreProgress` — the per-layer hand-over between a streaming
  restore and the serving iteration: the restore posts each layer as its
  last row lands, the packed model call waits per layer, a failure wakes
  the waiter with a typed error.

The inline single-threaded drain remains the default everywhere; pass an
executor to opt in.  See ``docs/ARCHITECTURE.md`` for the pipeline
timeline.
"""

from repro.runtime.executor import (
    GranuleTrace,
    RestoreExecutor,
    drain_granules,
    partition_layers,
)
from repro.runtime.io_pool import IOWorkerPool
from repro.runtime.progress import RestoreProgress

__all__ = [
    "GranuleTrace",
    "IOWorkerPool",
    "RestoreExecutor",
    "RestoreProgress",
    "drain_granules",
    "partition_layers",
]
