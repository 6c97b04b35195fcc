"""The restore drain loop and its executor: real IO/compute overlap (§4.1).

Every restoration — inline or threaded — is one call of the same loop,
:func:`drain_granules`: one plan (stored granules and read-free work,
merged by the engine), one staging array, and a **window** of granule
reads kept outstanding (submitted but not yet consumed), on the
executor's IO worker pool while the calling thread computes.

Determinism and bit-exactness: the plan runs strictly in order, and all
compute runs on the single calling thread into disjoint KV-cache rows.  Worker threads only
ever fill staging slots they exclusively own (the slot-reuse argument is
in :func:`drain_granules`), so threading changes *where bytes move*,
never *what gets computed* — the restored bytes are identical for every
pool size, and the tests assert exactly that against the naive
reference.

Background restores run on one driver thread, in start order
(:meth:`RestoreExecutor.restore_contexts_async`).  Device latency emulation
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

#: A drain plan item: a granule to read and consume, or read-free work.
PlanItem = GranuleSpec | Callable[[], None]


def _run_inline(fn: Callable[..., Any], /, *args: Any) -> Future:
    """``IOWorkerPool.submit`` without a pool: run now, return it settled."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def drain_granules(
    storage: StorageManager,
    context_id: str,
    plan: Sequence[PlanItem],
    consume: Callable[[GranuleSpec, np.ndarray], None],
    executor: "RestoreExecutor | None" = None,
) -> None:
    """Run ``plan`` in order on the calling thread, its granules read ahead.

    The one restore loop: one plan, one staging array and a window of
    ``executor.inflight`` outstanding reads on the executor's IO pool.  A
    :class:`GranuleSpec` is read, then ``consume(spec, rows)`` runs with
    ``rows`` a ``(spec.n_tokens, width)`` view of a staging slot, valid
    until it returns; any other item is read-free work (the engine's token
    replay and its projections), called with no argument, taking no window
    place and no slot.  The window is refilled *before* each granule is
    consumed, so the next read runs under this granule's consume, and the
    reads after a callable run under it — the §4.1 overlap.

    With ``executor=None`` the same loop runs with a window of 1 and
    executes each read synchronously at submit: the double-buffered
    single-threaded drain (the pending granule's slot stays valid while
    the next one is read into the other).

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
    widest = max((meta.width(x.kind) for x in plan if isinstance(x, GranuleSpec)), default=0)
    slots = cycle(np.empty((window + 1, storage.granule_tokens * widest), meta.dtype))
    items = iter(plan)
    pending: deque = deque()  # (callable, None, None) or (spec, rows, read), in plan order

    def submit_next() -> None:
        """Queue the plan up to and including its next granule's read."""
        for item in items:
            if not isinstance(item, GranuleSpec):
                pending.append((item, None, None))
                continue
            width = meta.width(item.kind)
            rows = next(slots)[: item.n_tokens * width].reshape(item.n_tokens, width)
            # The read is looked up on the storage instance at every submit,
            # so instance-level wrappers (tracing) see each granule.
            future = submit(storage.read_granule_into, context_id, item, rows)
            pending.append((item, rows, future))
            return

    try:
        for _ in range(window):
            submit_next()
        while pending:
            item, rows, future = pending.popleft()
            if future is None:
                item()
                continue
            future.result()
            submit_next()
            consume(item, rows)
    # lint: disable=exception-safety -- sanctioned drain containment: settles in-flight reads, then re-raises
    except BaseException:
        # Containment: a failed read (e.g. every replica of a device
        # faulted) or a failed consume or callable must not leave in-flight
        # workers filling staging slots this drain abandoned.  Settle every
        # outstanding future before propagating, so the pool is clean for
        # the next restore.  (CancelledError is a BaseException.)
        for future in [future for _, _, future in pending if future is not None]:
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
        the cache the future resolves to, and the owner of its slab.
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
