"""The restore drain loop and its executor: real IO/compute overlap (§4.1).

Every restoration — inline or threaded — is one call of the same loop,
:func:`drain_granules`: one granule plan (the engine merges the hidden
and KV layers' :meth:`StorageManager.granule_plan` in proportion), one
staging array, and a **window** of granule reads kept outstanding
(submitted but not yet consumed).  Without an executor the reads run
synchronously at submit with a window of 1 — the double-buffered
single-threaded drain; with one they run on the executor's IO worker
pool while the calling thread projects.

Determinism and bit-exactness: granules are consumed strictly in plan
order, and all projection compute runs at full GEMM width on the single
calling thread into disjoint KV-cache row slices.  Worker threads only
ever fill staging slots they exclusively own (the slot-reuse argument is
in :func:`drain_granules`), so threading changes *where bytes move*,
never *what gets computed* — the restored bytes are identical for every
pool size, and the tests assert exactly that against the naive
reference.

Background restores of several contexts run on the executor's one
driver thread, one after the other in start order — the FCFS booking of
the cost model's one IO path — so a restore's reads never interleave with
another's and its pace is its own.  Device latency emulation
(:meth:`repro.storage.array.StorageArray.emulate_latency`) sleeps every
read on one serial stream, so wall clock floors at the modelled IO total.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from itertools import cycle
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError, StateError
from repro.runtime.io_pool import IOWorkerPool
from repro.storage.manager import GranuleSpec, StorageManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.hcache import HCacheEngine
    from repro.models.kv_cache import KVCache
    from repro.runtime.progress import RestoreProgress

#: Granules the drain keeps in flight *beyond* one per IO worker.  The
#: runway of completed-but-unconsumed granules absorbs bursty IO
#: completion — real NVMe latency jitter, or the quantum-batched sleeps
#: of device latency emulation — without stalling the projection stream:
#: with a window of one granule every completion burst stalls the consumer
#: and the pipeline measurably serializes (a regression test pins this).
RUNWAY_GRANULES = 6


def _run_inline(fn: Callable[..., Any], /, *args: Any) -> Future:
    """``IOWorkerPool.submit`` without a pool: run now, return it settled."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def drain_granules(
    storage: StorageManager,
    context_id: str,
    granules: Sequence[GranuleSpec],
    consume: Callable[[GranuleSpec, np.ndarray], None],
    executor: "RestoreExecutor | None" = None,
    under_io: "Callable[[], None] | None" = None,
) -> None:
    """Stream the stored rows of ``granules`` through ``consume``, reads running ahead.

    The one restore loop: one plan (hidden and KV granules in any order),
    one staging array and a window of ``executor.inflight`` outstanding
    reads on the executor's IO pool.  ``consume(spec, rows)`` (projection
    or KV install) runs on the calling thread, strictly in plan order;
    ``rows`` is a ``(spec.n_tokens, width)`` view of a staging slot and is
    valid only until ``consume`` returns.  The window is refilled *before*
    each granule is consumed, so the next read runs under this granule's
    consume — the §4.1 overlap.

    With ``executor=None`` the same loop runs with a window of 1 and
    executes each read synchronously at submit: the double-buffered
    single-threaded drain (the pending granule's slot stays valid while
    the next one is read into the other).

    ``under_io`` is work that needs no stored state (the engine's
    token-sourced recompute prefix): it runs once on the calling thread,
    right after the first window of reads has been submitted and before
    the first granule is consumed, so with an executor it hides under the
    IO stream.  Inline, or with an empty plan, it simply runs at that
    point.

    The loop reads no clock and counts nothing: the devices count and
    time each chunk read, and the executor's pool its submissions.
    """
    submit: Callable[..., Future]
    if executor is None:
        window, submit = 1, _run_inline
    else:
        window, submit = executor.inflight, executor.pool.submit
    meta = storage.meta(context_id)
    # Each slot holds a granule of the plan's widest kind; a narrower one
    # takes a contiguous prefix of it.  Outstanding reads never exceed
    # `window` (one refill per consume), and there are `window + 1` slots
    # taken round-robin, so the slot a refill reuses was taken window + 1
    # submissions earlier — always a granule already consumed, never the
    # rows being consumed now.
    widest = max((meta.width(spec.kind) for spec in granules), default=0)
    slots = cycle(np.empty((window + 1, storage.granule_tokens * widest), meta.dtype))
    plan = iter(granules)
    pending: deque = deque()

    def submit_next() -> None:
        spec = next(plan, None)
        if spec is None:
            return
        width = meta.width(spec.kind)
        rows = next(slots)[: spec.n_tokens * width].reshape(spec.n_tokens, width)
        # The read is looked up on the storage instance at every submit,
        # so instance-level wrappers (tracing) see each granule.
        future = submit(storage.read_granule_into, context_id, spec, rows)
        pending.append((spec, rows, future))

    try:
        for _ in range(window):
            submit_next()
        if under_io is not None:
            under_io()
        while pending:
            spec, rows, future = pending.popleft()
            future.result()
            submit_next()
            consume(spec, rows)
    # lint: disable=exception-safety -- sanctioned drain containment: settles in-flight reads, then re-raises
    except BaseException:
        # Containment: a failed read (e.g. every replica of a device
        # faulted) or a failed consume must not leave in-flight workers
        # filling staging slots this drain abandoned.  Settle every
        # outstanding future before propagating, so the pool is clean for
        # the next restore.  (CancelledError is a BaseException.)
        for _, _, future in pending:
            future.cancel()
            try:
                future.result()
            # lint: disable=exception-safety -- settling a cancelled future; the original fault re-raises below
            except BaseException:
                pass
        raise


class RestoreExecutor:
    """The shape and resources a restoration drains with.

    Passing one to :meth:`HCacheEngine.restore` runs the granule reads on
    background IO workers while the calling thread projects.

    Args:
        pool: The shared :class:`IOWorkerPool`, or an int to create an
            owned pool of that size.  ``close`` only shuts down owned
            pools.
    """

    def __init__(self, pool: IOWorkerPool | int = 1) -> None:
        self._owns_pool = isinstance(pool, int)
        if isinstance(pool, int):
            pool = IOWorkerPool(pool)
        self.pool = pool
        #: The one background restore driver, created on first use.
        self._driver: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def inflight(self) -> int:
        """Granule reads a drain keeps outstanding: one per IO worker plus
        :data:`RUNWAY_GRANULES`.  Each costs one staging slot."""
        return self.pool.size + RUNWAY_GRANULES

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "RestoreExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the driver, and the IO pool if owned."""
        self._closed = True
        if self._driver is not None:
            self._driver.shutdown(wait=True)
            self._driver = None
        if self._owns_pool:
            self.pool.shutdown()

    # -- background multi-context restore ------------------------------

    def restore_contexts_async(
        self,
        engine: "HCacheEngine",
        context_ids: Sequence[str],
        *,
        reserve_tokens: "Mapping[str, int] | None" = None,
        progress: "Mapping[str, RestoreProgress] | None" = None,
    ) -> dict[str, "Future[KVCache]"]:
        """Start restoring several contexts in the background, in order.

        Returns ``{context_id: Future[KVCache]}`` immediately; each
        restoration is the ordinary ``engine.restore(..., executor=self)``
        on the executor's one driver thread, ``hcache-restore-async``, one
        at a time in start order (this call's order, after every restore
        an earlier call started) — the cost model's first-come-first-served
        booking on one IO path, so a restore's pace is its own.  This is
        the serving front end's restore/decode overlap: granule reads on
        the :class:`IOWorkerPool`, projection GEMMs on the driver (numpy
        BLAS releases the GIL), while the calling thread keeps issuing
        fused iterations for GPU-resident sessions.  Results are
        bit-identical to inline restores.

        ``reserve_tokens`` maps a context to the capacity its cache is
        sized for (missing ids reserve 0 — only each context's own
        expected length is worth preallocating).

        ``progress`` (one :class:`~repro.runtime.progress.RestoreProgress`
        per context id) is handed to each ``engine.restore`` — which posts
        every layer as it lands — and settled from the future's
        done-callback, so a waiter on it always wakes: on the layer, on
        completion, or with the failure.  A ``progress`` id that is not in
        ``context_ids`` raises :class:`~repro.errors.ConfigError` before
        any restore starts.

        Safety: the restored context must not be saved to or dropped
        while its future is outstanding; saves of *other* contexts are
        fine, per the :meth:`HCacheEngine.restore` concurrency contract.
        With ``progress`` the serving engine may prefill on
        ``progress[cid].step_cache`` meanwhile — a second handle, never
        the cache the future resolves to.
        """
        if self._closed:
            raise StateError("restore executor is closed")
        ids = list(context_ids)
        if len(set(ids)) != len(ids):
            raise ConfigError("multi-context restore needs distinct context ids")
        sinks: "Mapping[str, RestoreProgress]" = progress if progress is not None else {}
        stray = set(sinks) - set(ids)
        if stray:
            raise ConfigError(f"progress names contexts not being restored: {sorted(stray)}")
        reserve = reserve_tokens if reserve_tokens is not None else {}
        if self._driver is None:
            self._driver = ThreadPoolExecutor(1, thread_name_prefix="hcache-restore-async")
        futures = {
            cid: self._driver.submit(
                partial(engine.restore, cid, int(reserve.get(cid, 0)), executor=self,
                        progress=sinks.get(cid))
            )
            for cid in ids
        }
        for cid, sink in sinks.items():
            futures[cid].add_done_callback(sink.settle)
        return futures
