"""The restore drain loop and its executor: real IO/compute overlap (§4.1).

Every restoration — inline, threaded, or sharded over a ``(pipeline x
tensor)`` grid of simulated GPUs — is the same loop, :func:`drain_granules`,
parameterised by three things:

- **stages** (:func:`partition_layers`): the drain's layers split into
  contiguous pipeline stages.  Stages share nothing but the IO worker
  pool, so their granule streams progress independently; one stage is
  the plain threaded restore.
- **window**: granule reads each stage keeps outstanding (submitted but
  not yet consumed).  Without an executor the reads run synchronously at
  submit with a window of 1 — the double-buffered single-threaded drain.
- **head ranges**: the tensor dimension only partitions the strictly
  elementwise merge inside the ``consume`` callback
  (:meth:`Transformer.project_kv_chunk` with a head-ranged workspace,
  :meth:`KVCache.install_packed_head_rows`); this loop only routes
  granules.

Determinism and bit-exactness: each stage's granule plan is a
byte-identical sub-sequence of :meth:`StorageManager.granule_plan` for
all layers, granules are consumed strictly in plan order within a stage,
and all projection compute runs at full GEMM width on the single calling
thread into disjoint KV-cache row slices.  Worker threads only ever fill
staging slots they exclusively own (see the threading rules on
:class:`repro.storage.streaming.StagingRing`), so sharding and threading
change *where bytes move*, never *what gets computed* — the restored
bytes are identical for every pool size and shard shape, and the tests
assert exactly that against the naive reference.

Concurrent restorations of *different* contexts may share one executor:
each ``restore`` call brings its own staging rings and workspace, devices
are read-only during restoration, and the pool is the only shared
resource — which is the point, since a shared IO path is the contention a
real serving system sees.  The executor's *measured* concurrency comes
from the reads: device latency emulation with ``channels=p*t``
(:meth:`repro.storage.array.StorageArray.emulate_latency`) sleeps the
shards' reads on independent channels, so wall clock genuinely floors at
the aggregated-bandwidth ``io_total / (p*t)`` the model prices.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ConfigError, StateError
from repro.runtime.io_pool import IOWorkerPool
from repro.storage.manager import StorageManager
from repro.storage.streaming import LayerChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.hcache import HCacheEngine, RestoreBreakdown
    from repro.models.kv_cache import KVCache
    from repro.runtime.progress import RestoreProgress

#: Granules each stage keeps in flight *beyond* one per IO worker it can
#: expect.  The runway of completed-but-unconsumed granules absorbs bursty
#: IO completion — real NVMe latency jitter, or the quantum-batched sleeps
#: of device latency emulation — without stalling the projection stream:
#: with a window of one granule every completion burst stalls the consumer
#: and the pipeline measurably serializes (a regression test pins this).
RUNWAY_GRANULES = 6


def partition_layers(
    layers: Sequence[int], n_stages: int
) -> tuple[tuple[int, ...], ...]:
    """Split ``layers`` into contiguous, balanced pipeline stages.

    Stage sizes differ by at most one (larger stages first).  A stage
    count above ``len(layers)`` is **clamped** — unlike the tensor
    dimension (where an over-split silently misprojects and is
    rejected), extra pipeline stages would merely be empty, so the plan
    degrades to one layer per stage.  Preserves the given layer order
    (the §4.1 drain order).

    Raises:
        ConfigError: for a non-positive stage count.
    """
    if n_stages < 1:
        raise ConfigError(f"pipeline shard count must be positive, got {n_stages}")
    layers = tuple(layers)
    if not layers:
        return ()
    n = min(n_stages, len(layers))
    base, extra = divmod(len(layers), n)
    bounds = list(
        accumulate((base + (1 if s < extra else 0) for s in range(n)), initial=0)
    )
    return tuple(layers[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class GranuleTrace:
    """One consumed granule of a timed drain, in consumption order.

    The engine turns a drain's trace into its hybrid makespans: the
    two-stream §4.1 recurrence over all granules, and the per-stage
    :class:`~repro.simulator.pipeline.ShardedStageTimeline` series.

    Attributes:
        stage: Pipeline stage the granule belonged to.
        rows: Token rows it covered.
        io_seconds: Modelled device seconds of its chunk reads.
        compute_seconds: Measured wall clock of its ``consume`` call.
    """

    stage: int
    rows: int
    io_seconds: float
    compute_seconds: float


def _run_inline(fn: Callable[..., Any], /, *args: Any) -> Future:
    """``IOWorkerPool.submit`` without a pool: run now, return it settled."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def drain_granules(
    storage: StorageManager,
    context_id: str,
    layers: Sequence[int],
    kind: str,
    granule_chunks: int,
    consume: Callable[[LayerChunk], None],
    executor: "RestoreExecutor | None" = None,
    start_tokens: int = 0,
    stats: "RestoreBreakdown | None" = None,
    under_io: "Callable[[], None] | None" = None,
) -> list[GranuleTrace]:
    """Stream ``layers``' stored rows through ``consume``, reads running ahead.

    The one restore loop.  ``layers`` split into the executor's pipeline
    stages; each stage gets its own granule plan, staging ring and window
    of ``executor.inflight`` outstanding reads on the shared IO pool.
    ``consume`` (projection or KV install) runs on the calling thread —
    within a stage strictly in plan order, across stages interleaved by
    readiness (whichever stage's next granule has landed, round-robin
    among the ready ones).  Each stage's window is refilled *before* its
    granule is consumed, so the next read runs under this granule's
    projection — the §4.1 overlap.

    With ``executor=None`` the same loop runs one stage with a window of
    1 and executes each read synchronously at submit: the
    double-buffered single-threaded drain (the pending granule's slot
    stays valid while the next one is read into the other).

    ``start_tokens`` (chunk-aligned) skips every layer's pool-served
    shared-prefix rows.

    ``under_io`` is work that needs no stored state (the engine's
    token-sourced recompute prefix): it runs once on the calling thread,
    right after every stage's first window of reads has been submitted
    and before the first granule is consumed, so with an executor it
    hides under the IO stream.  Inline, or with nothing to read, it
    simply runs at that point.

    Accounting (only when ``stats`` is given): ``stats.granules`` /
    ``device_reads`` count what was consumed; ``stats.read_s``
    accumulates the time this thread spent blocked on reads — the whole
    read when inline, otherwise only the *stall* the pipeline failed to
    hide (0 in the ideal §4.1 timeline); ``stats.dispatch_s`` gets the
    submit-side overhead of pooled reads (staging-slot acquisition +
    pool handoff per granule), which together with ``read_s`` itemizes
    the gap between wall clock and the modelled makespan.  Returns the
    per-granule :class:`GranuleTrace` in consumption order (empty when
    untimed).
    """
    submit: Callable[..., Future]
    if executor is None:
        n_stages, window, submit = 1, 1, _run_inline
    else:
        n_stages, window = executor.shard_shape[0], executor.inflight
        submit = executor.pool.submit
    plans = [
        plan
        for stage in partition_layers(layers, n_stages)
        if (plan := storage.granule_plan(context_id, stage, kind, granule_chunks, start_tokens))
    ]
    timed = stats is not None
    trace: list[GranuleTrace] = []
    # Per-stage outstanding reads never exceed `window` (one refill per
    # consume), and each ring is `window + 1` deep, so the slot a refill
    # recycles was acquired window + 1 submissions earlier in the same
    # stage — always a granule that stage has already consumed, never the
    # live view being consumed now.
    rings = [
        storage.staging_ring(context_id, kind, depth=window + 1, granule_chunks=granule_chunks)
        for _ in plans
    ]
    cursors = [iter(plan) for plan in plans]
    pending: list[deque] = [deque() for _ in plans]

    def submit_next(s: int) -> None:
        spec = next(cursors[s], None)
        if spec is None:
            return
        t0 = perf_counter() if timed else 0.0
        view = rings[s].acquire()[: spec.n_tokens]
        # The read is looked up on the storage instance at every submit,
        # so instance-level wrappers (tracing) see each granule.
        future = submit(storage.read_granule_into, context_id, spec, view)
        pending[s].append((spec, view, future))
        if timed:
            if executor is None:
                stats.read_s += perf_counter() - t0
            else:
                stats.dispatch_s += perf_counter() - t0

    try:
        for s in range(len(plans)):
            for _ in range(window):
                submit_next(s)
        if under_io is not None:
            under_io()
        live = deque(range(len(plans)))
        while live:
            # A single live stage just blocks on its head granule; several
            # take the first head that has landed, in round-robin order.
            ready = live[0]
            if len(live) > 1:
                ready = next((s for s in live if pending[s][0][2].done()), -1)
                if ready < 0:
                    # No stage's head granule has landed: a genuine
                    # cross-stage stall (the IO every shard failed to
                    # hide).  Wake on the first head to complete.
                    t0 = perf_counter() if timed else 0.0
                    wait([pending[s][0][2] for s in live], return_when=FIRST_COMPLETED)
                    if timed:
                        stats.read_s += perf_counter() - t0
                    continue
            spec, view, future = pending[ready].popleft()
            t0 = perf_counter() if timed else 0.0
            io_seconds, device_reads = future.result()
            if timed:
                stats.read_s += perf_counter() - t0
                stats.granules += 1
                stats.device_reads += device_reads
            submit_next(ready)
            live.remove(ready)
            if pending[ready]:
                live.append(ready)
            t0 = perf_counter() if timed else 0.0
            consume(
                LayerChunk(
                    layer=spec.layer,
                    kind=spec.kind,
                    start=spec.start,
                    stop=spec.stop,
                    data=view,
                    io_seconds=io_seconds,
                    device_reads=device_reads,
                )
            )
            if timed:
                trace.append(
                    GranuleTrace(ready, spec.n_tokens, io_seconds, perf_counter() - t0)
                )
    # lint: disable=exception-safety -- sanctioned drain containment: settles in-flight reads across all stages, then re-raises
    except BaseException:
        # Containment: a failed read (e.g. every replica of a device
        # faulted) or a failed consume must not leave in-flight workers
        # filling staging slots this drain abandoned.  Settle every
        # outstanding future of every stage before propagating, so the
        # pool is clean for the next restore.  (CancelledError is a
        # BaseException.)
        for stage_pending in pending:
            for _, _, future in stage_pending:
                future.cancel()
                try:
                    future.result()
                # lint: disable=exception-safety -- settling a cancelled future; the original fault re-raises below
                except BaseException:
                    pass
        raise
    return trace


def per_context_reserve(
    context_ids: Sequence[str], reserve_tokens: "int | Mapping[str, int]"
) -> dict[str, int]:
    """Normalise a ``reserve_tokens`` argument to one capacity per context.

    One int applies to every context; a mapping is per context (missing
    ids reserve 0 — only each context's own expected length is worth
    preallocating).
    """
    if isinstance(reserve_tokens, int):
        return dict.fromkeys(context_ids, reserve_tokens)
    return {cid: int(reserve_tokens.get(cid, 0)) for cid in context_ids}


class RestoreExecutor:
    """The shape and resources a restoration drains with.

    Passing one to :meth:`HCacheEngine.restore` runs the granule reads on
    background IO workers while the calling thread projects, and
    partitions the restoration across ``shards`` simulated GPUs.

    Args:
        pool: The shared :class:`IOWorkerPool`, an int to create an owned
            pool of that size, or ``None`` for an owned pool with one
            worker per simulated GPU (``pipeline * tensor`` — each
            shard's ingest link gets a thread, so emulated-latency reads
            genuinely overlap across shards).  ``close`` only shuts down
            owned pools.
        shards: ``(pipeline, tensor)`` — the simulated GPU grid one
            restoration is partitioned over.  Contiguous layer stages
            drain concurrently, and with ``tensor > 1`` each granule's
            merge is split into GQA-group-aligned KV-head ranges.  The
            default ``(1, 1)`` is the plain threaded restore.
        inflight: Granule reads each pipeline stage keeps outstanding
            (submitted but not yet consumed), bounded per stage so one
            stage's burst cannot starve the others' staging windows.
            Defaults to the stage's share of the pool's workers plus
            :data:`RUNWAY_GRANULES`.  Memory cost is one staging slot per
            in-flight granule (the ring is ``inflight + 1`` deep, which
            makes slot reuse safe — see :class:`StagingRing`).
        max_concurrent_restores: Driver threads restoring distinct
            contexts at once in :meth:`restore_contexts` /
            :meth:`restore_contexts_async`.
    """

    def __init__(
        self,
        pool: IOWorkerPool | int | None = None,
        *,
        shards: tuple[int, int] = (1, 1),
        inflight: int | None = None,
        max_concurrent_restores: int = 4,
    ) -> None:
        pipeline_shards, tensor_shards = shards
        if pipeline_shards < 1 or tensor_shards < 1:
            raise ConfigError(
                f"shard shape {shards} needs positive pipeline and tensor counts"
            )
        if pool is None:
            pool = pipeline_shards * tensor_shards
        self._owns_pool = isinstance(pool, int)
        if isinstance(pool, int):
            pool = IOWorkerPool(pool)
        if inflight is None:
            inflight = max(1, pool.size // pipeline_shards) + RUNWAY_GRANULES
        if inflight < 1:
            raise ConfigError("executor needs at least one granule in flight")
        if max_concurrent_restores < 1:
            raise ConfigError("max_concurrent_restores must be at least 1")
        self.pool = pool
        self.shard_shape = (int(pipeline_shards), int(tensor_shards))
        self.inflight = inflight
        self.max_concurrent_restores = max_concurrent_restores
        #: Lazily created driver pool for the multi-context restores.
        self._drivers: ThreadPoolExecutor | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "RestoreExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the driver pool, and the IO pool if owned."""
        self._closed = True
        if self._drivers is not None:
            self._drivers.shutdown(wait=True)
            self._drivers = None
        if self._owns_pool:
            self.pool.shutdown()

    # -- concurrent multi-context restore ------------------------------

    def restore_contexts_async(
        self,
        engine: "HCacheEngine",
        context_ids: Sequence[str],
        *,
        reserve_tokens: "int | Mapping[str, int]" = 0,
        progress: "Mapping[str, RestoreProgress] | None" = None,
    ) -> dict[str, "Future[KVCache]"]:
        """Start restoring several contexts through the shared pool.

        Returns ``{context_id: Future[KVCache]}`` immediately; each
        restoration is the ordinary ``engine.restore(..., executor=self)``
        on a persistent driver pool (at most ``max_concurrent_restores``
        concurrently), all of them contending for the same IO workers —
        the serving-layer scenario the simulator's
        ``restore_io_parallelism`` models in time.  This is the serving
        front end's restore/decode overlap: admitted-but-evicted sessions
        restore in the background — their granule reads on the shared
        :class:`IOWorkerPool`, their projection GEMMs on the driver
        threads (numpy BLAS releases the GIL) — while the calling thread
        keeps issuing fused decode iterations for GPU-resident sessions.
        Per-context results are bit-identical to restoring them one by
        one — restores share no mutable state but the pool and the
        read-only storage; only completion *timing* differs.

        ``reserve_tokens`` is one capacity for every context or a
        per-context mapping (see :func:`per_context_reserve`).

        ``progress`` (one :class:`~repro.runtime.progress.RestoreProgress`
        per context id) is handed to each ``engine.restore`` — which posts
        every layer as it lands — and settled from the future's
        done-callback, so a waiter on it always wakes: on the layer, on
        completion, or with the failure.

        Safety: the restored context must not be saved to or dropped
        while its future is outstanding; concurrent saves of *other*
        contexts are fine, per the :meth:`HCacheEngine.restore`
        concurrency contract.  With ``progress`` the serving engine may
        prefill on ``progress[cid].step_cache`` meanwhile — a second
        handle, never the cache the future resolves to.
        """
        if self._closed:
            raise StateError("restore executor is closed")
        ids = list(context_ids)
        if len(set(ids)) != len(ids):
            raise ConfigError("multi-context restore needs distinct context ids")
        if not ids:
            return {}
        reserve = per_context_reserve(ids, reserve_tokens)
        # Build the shared projection-weight stacks once, up front; the
        # lazy build is idempotent but racing it wastes work.
        engine.transformer._projection_stack()
        if self._drivers is None:
            self._drivers = ThreadPoolExecutor(
                max_workers=self.max_concurrent_restores,
                thread_name_prefix="hcache-restore",
            )
        sinks: "Mapping[str, RestoreProgress]" = progress if progress is not None else {}
        futures = {
            cid: self._drivers.submit(
                partial(
                    engine.restore, cid, reserve[cid], executor=self, progress=sinks.get(cid)
                )
            )
            for cid in ids
        }
        for cid, sink in sinks.items():
            futures[cid].add_done_callback(sink.settle)
        return futures

    def restore_contexts(
        self,
        engine: "HCacheEngine",
        context_ids: Sequence[str],
        *,
        reserve_tokens: "int | Mapping[str, int]" = 0,
    ) -> dict[str, "KVCache"]:
        """Blocking :meth:`restore_contexts_async`: ``{context_id: KVCache}``.

        The first failure propagates after the remaining drivers finish.
        """
        futures = self.restore_contexts_async(
            engine, context_ids, reserve_tokens=reserve_tokens
        )
        wait(futures.values())
        return {cid: future.result() for cid, future in futures.items()}
