"""Async serving front end: submit/step/stream with admission control.

The serving loop the paper's restoration primitive exists to feed (§5):
requests arrive continuously, admission control gates them on KV memory
(and optionally block-pool headroom), evicted histories restore in the
background while resident sessions keep decoding, and every iteration
executes as **one** fused prefill+decode model call
(:meth:`NumericServingEngine.execute_iteration`).

Ownership and threading rules (the event-loop contract):

- **Calling thread owns everything mutable**: the queue, the batcher,
  session states, caches, token logs, and every model call run on
  whichever thread calls :meth:`ServingFrontend.step`.  The front end is
  not itself thread-safe — one driver thread, like an asyncio loop.
- **Restore workers touch only their own restoration**: with
  ``overlap_restores`` and a configured executor, admitted-but-evicted
  sessions restore via
  :meth:`~repro.runtime.executor.RestoreExecutor.restore_contexts_async`
  on driver threads (granule reads on the shared IO pool, projection
  GEMMs under released GILs).  A restoring session sits in the
  RESTORING phase, excluded from every iteration plan, and its finished
  cache is installed by the calling thread when :meth:`step` polls the
  future — workers never mutate session state.
- **Saves vs restores**: decode iterations save *other* sessions' states
  while restores read storage; that concurrency is sanctioned by the
  :meth:`HCacheEngine.restore` contract (distinct contexts only — the
  RESTORING phase guarantees the restoring context gets no saves).

This module's ``__all__`` is pinned by the ``frontend-api`` lint rule.
"""

from __future__ import annotations

import time
from concurrent.futures import Future as _Future
from typing import TYPE_CHECKING as _TYPE_CHECKING
from typing import Callable as _Callable
from typing import Iterator as _Iterator

import numpy as np

from repro.engine.api import IterationStats as _IterationStats
from repro.engine.api import ServingRequest as _ServingRequest
from repro.engine.api import ServingResponse as _ServingResponse
from repro.engine.batching import ContinuousBatcher as _ContinuousBatcher
from repro.engine.batching import MemoryBudget as _MemoryBudget
from repro.engine.metrics import MetricsCollector as _MetricsCollector
from repro.engine.numeric_engine import NumericServingEngine as _NumericServingEngine
from repro.engine.request import Phase as _Phase
from repro.engine.request import Request as _Request
from repro.engine.request import RequestSpec as _RequestSpec
from repro.engine.splitfuse import SplitFuseScheduler as _SplitFuseScheduler
from repro.errors import AdmissionError as _AdmissionError
from repro.errors import ConfigError as _ConfigError
from repro.errors import SchedulingError as _SchedulingError
from repro.errors import StateError as _StateError
from repro.models.kv_cache import KVCache as _KVCache

if _TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.state.store import BlockStateStore

__all__ = [
    "RequestHandle",
    "ServingFrontend",
    "pool_admission_gate",
]


def pool_admission_gate(
    store: "BlockStateStore", *, headroom_blocks: int = 0
) -> _Callable[[_RequestSpec], bool]:
    """Admission veto tied to a shared block pool's real headroom.

    Returns a gate for :class:`ServingFrontend` (and ultimately
    :meth:`ContinuousBatcher.admit`) that only admits a request when the
    pool can absorb its whole context *now* — free blocks plus evictable
    refcount-0 blocks, minus a ``headroom_blocks`` safety margin kept for
    in-flight appends.  Token-budget accounting alone cannot see pool
    pressure from prefix sharing and pinned blocks; this closes that gap
    with :meth:`BlockStateStore.admission_headroom`.
    """
    if headroom_blocks < 0:
        raise _ConfigError("headroom_blocks must be non-negative")

    def gate(spec: _RequestSpec) -> bool:
        margin = headroom_blocks * store.pool.block_tokens
        return store.admission_headroom(spec.total_context + margin)

    return gate


class _Tracked:
    """Front-end bookkeeping for one submitted request."""

    __slots__ = (
        "serving",
        "request",
        "emitted",
        "fed",
        "pending",
        "restore_future",
    )

    def __init__(self, serving: _ServingRequest, request: _Request) -> None:
        self.serving = serving
        self.request = request
        #: Generated tokens visible to :meth:`ServingFrontend.stream`.
        self.emitted: list[int] = []
        #: Generated tokens fed back through the model (every generated
        #: token is fed + saved, including the last — matching
        #: ``chat_round``'s save discipline, so the token log and the
        #: persisted states cover the full stream).
        self.fed = 0
        #: Next token to feed, once decoding.
        self.pending: int | None = None
        self.restore_future: _Future[_KVCache] | None = None


class RequestHandle:
    """Caller-facing view of one submitted request.

    Cheap and read-only: all state lives in the front end; the handle
    only knows its ids and where to look.
    """

    __slots__ = ("_frontend", "request_id", "session_id")

    def __init__(
        self, frontend: "ServingFrontend", request_id: str, session_id: str
    ) -> None:
        self._frontend = frontend
        self.request_id = request_id
        self.session_id = session_id

    def __repr__(self) -> str:
        return f"RequestHandle({self.request_id!r}, session={self.session_id!r})"

    @property
    def phase(self) -> _Phase:
        return self._frontend._tracked[self.request_id].request.phase

    @property
    def finished(self) -> bool:
        return self.phase is _Phase.FINISHED

    def tokens(self) -> tuple[int, ...]:
        """Tokens generated so far (the full stream once finished)."""
        return tuple(self._frontend._tracked[self.request_id].emitted)

    def result(self) -> _ServingResponse:
        """The finished response; raises until the request finishes."""
        response = self._frontend._responses.get(self.request_id)
        if response is None:
            raise _StateError(
                f"request {self.request_id!r} has not finished "
                f"(phase {self.phase.value}); drive step() or stream() first"
            )
        return response


class ServingFrontend:
    """Concurrent request loop over a :class:`NumericServingEngine`.

    ``submit`` enqueues typed requests (rejecting impossible ones with
    :class:`~repro.errors.AdmissionError`), ``step`` runs one
    admission → schedule → fused-iteration → restore-overlap cycle and
    reports it as an :class:`~repro.engine.api.IterationStats`, and
    ``stream`` yields a request's tokens as iterations produce them.

    Args:
        engine: The numeric engine whose sessions this loop serves.
            Sessions are opened lazily at first submit; pre-existing
            sessions (and their evicted histories) are picked up as-is.
        budget: KV-token capacity gating admission
            (:class:`~repro.engine.batching.MemoryBudget`).
        scheduler: SplitFuse chunked-prefill budgeter; default budget.
        max_running: Cap on concurrently admitted requests.
        max_queue: Arrival-queue bound; submits beyond it are rejected
            with :class:`AdmissionError` (typed back-pressure).
        admission_gate: Extra per-request admission veto, e.g.
            :func:`pool_admission_gate`; consulted by every admit pass.
        overlap_restores: Restore admitted-but-evicted sessions in the
            background through ``engine.executor`` while decode
            continues (requires an executor; without one, restores run
            synchronously in the admitting step, burst-then-prefill).
        evict_on_finish: Seal + drop a session's GPU cache when its last
            in-flight request finishes (the next round restores it) —
            the high-churn configuration a million-session trace needs.
            Default keeps finished sessions resident.
        clock: Timestamp source (seconds, monotonic); default
            ``time.perf_counter``.  Injectable for deterministic tests.
    """

    def __init__(
        self,
        engine: _NumericServingEngine,
        budget: _MemoryBudget,
        *,
        scheduler: _SplitFuseScheduler | None = None,
        max_running: int = 256,
        max_queue: int = 4096,
        admission_gate: _Callable[[_RequestSpec], bool] | None = None,
        overlap_restores: bool = True,
        evict_on_finish: bool = False,
        clock: _Callable[[], float] | None = None,
    ) -> None:
        if max_queue < 1:
            raise _ConfigError("max_queue must be at least 1")
        self.engine = engine
        self.batcher = _ContinuousBatcher(budget, max_running=max_running)
        self.scheduler = scheduler if scheduler is not None else _SplitFuseScheduler()
        self.metrics = _MetricsCollector()
        self.max_queue = max_queue
        self.admission_gate = admission_gate
        self.overlap_restores = overlap_restores
        self.evict_on_finish = evict_on_finish
        self._clock = clock if clock is not None else time.perf_counter
        self._tracked: dict[str, _Tracked] = {}
        self._responses: dict[str, _ServingResponse] = {}
        self._finished_ids: set[str] = set()
        self._rejected = 0
        self._iteration = 0
        #: Last submitted (not yet finished) request id per session — the
        #: dependency chain that keeps a session's rounds in order.
        self._session_tail: dict[str, str] = {}
        #: Token-log length each session will have reached once all its
        #: submitted rounds run — the history the *next* round sees.
        self._projected_len: dict[str, int] = {}
        self._round_counter: dict[str, int] = {}

    # -- submission ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.batcher.queue)

    @property
    def n_running(self) -> int:
        return len(self.batcher.running)

    @property
    def rejected_requests(self) -> int:
        """Requests :meth:`submit` refused with :class:`AdmissionError`."""
        return self._rejected

    @property
    def idle(self) -> bool:
        return self.batcher.idle

    def submit(self, request: _ServingRequest) -> RequestHandle:
        """Enqueue one round; typed rejection instead of a deep crash.

        Raises:
            AdmissionError: if the request's full context could never fit
                the KV budget (it would queue forever), or the arrival
                queue is at ``max_queue`` (back-pressure: retry later).
            ConfigError: on a duplicate ``request_id``.
        """
        session_id = request.session_id
        if request.request_id is None:
            n = self._round_counter.get(session_id, 0)
            self._round_counter[session_id] = n + 1
            request_id = f"{session_id}/r{n}"
        else:
            request_id = request.request_id
        if request_id in self._tracked:
            raise _ConfigError(f"request id {request_id!r} was already submitted")

        if not self.engine.has_session(session_id):
            self.engine.open_session(session_id)
        if session_id not in self._session_tail:
            # No in-flight rounds: (re-)base the projection on the real
            # log, in case the session was served outside this front end.
            self._projected_len[session_id] = len(
                self.engine.session(session_id).tokens
            )
        history = self._projected_len[session_id]
        now = self._clock()
        arrival = request.arrival_time if request.arrival_time is not None else now
        spec = _RequestSpec(
            request_id=request_id,
            session_id=session_id,
            arrival_time=arrival,
            history_tokens=history,
            input_tokens=int(request.prompt_tokens.size),
            output_tokens=request.max_new_tokens,
            depends_on=self._session_tail.get(session_id),
        )
        if spec.total_context > self.batcher.budget.capacity_tokens:
            self._rejected += 1
            raise _AdmissionError(
                f"request {request_id!r} needs {spec.total_context} KV tokens; "
                f"the budget holds {self.batcher.budget.capacity_tokens} — "
                "it can never be admitted"
            )
        if self.queue_depth >= self.max_queue:
            self._rejected += 1
            raise _AdmissionError(
                f"arrival queue is full ({self.max_queue} requests); retry later"
            )
        tracked = _Tracked(request, _Request(spec=spec))
        self.batcher.enqueue(tracked.request)
        self._tracked[request_id] = tracked
        self._session_tail[session_id] = request_id
        self._projected_len[session_id] = (
            history + spec.input_tokens + spec.output_tokens
        )
        return RequestHandle(self, request_id, session_id)

    # -- the iteration loop --------------------------------------------

    def step(self) -> _IterationStats:
        """Run one serving iteration; at most one batched model call.

        Order within the step: finished background restores are settled
        (caches installed, sessions become schedulable), queued requests
        are admitted FCFS under the KV budget + gate, newly admitted
        evicted sessions start restoring (async when overlapping),
        SplitFuse plans the token budget over decoding + prefilling
        requests — prefills in earliest-TTFT-deadline order — and the
        plan executes as one fused :meth:`execute_iteration` call.
        """
        now = self._clock()
        index = self._iteration
        self._iteration += 1
        restores_completed = self._settle_restores()
        admitted = self.batcher.admit(
            now, finished_sessions=self._finished_ids, admission_gate=self.admission_gate
        )
        restores_started = self._start_admitted(admitted, now)
        plan = self.scheduler.plan(
            self.batcher.decoding(), self._prefill_order(self.batcher.prefilling())
        )
        if not plan.has_work:
            if self.batcher.restoring():
                # Only background restores are runnable: yield briefly so
                # the poll loop does not spin a core against the futures.
                time.sleep(0.0002)  # lint: disable=exception-safety -- genuine wall-clock backoff while polling restore futures, not modelled latency
            return _IterationStats(
                index=index,
                time=now,
                admitted=tuple(r.spec.request_id for r in admitted),
                restores_started=restores_started,
                restores_completed=restores_completed,
                model_calls=0,
            )

        chunks: list[tuple[str, np.ndarray]] = []
        for request, take in plan.prefill_chunks:
            tracked = self._tracked[request.spec.request_id]
            done = request.spec.input_tokens - request.prefill_remaining
            chunks.append(
                (request.spec.session_id, tracked.serving.prompt_tokens[done : done + take])
            )
        decode_tokens: dict[str, int] = {}
        for request in plan.decode_requests:
            tracked = self._tracked[request.spec.request_id]
            assert tracked.pending is not None
            decode_tokens[request.spec.session_id] = tracked.pending

        result = self.engine.execute_iteration(chunks, decode_tokens)

        finished: list[str] = []
        for request, take in plan.prefill_chunks:
            tracked = self._tracked[request.spec.request_id]
            request.prefill_remaining -= take
            if request.prefill_remaining == 0:
                token = int(result.next_tokens[request.spec.session_id])
                request.mark_first_token(self._clock())
                tracked.emitted.append(token)
                tracked.pending = token
        for request in plan.decode_requests:
            tracked = self._tracked[request.spec.request_id]
            tracked.fed += 1
            if tracked.fed < request.spec.output_tokens:
                token = int(result.next_tokens[request.spec.session_id])
                tracked.emitted.append(token)
                tracked.pending = token
                request.decoded_tokens += 1
            else:
                self._finish(tracked)
                finished.append(request.spec.request_id)
        return _IterationStats(
            index=index,
            time=now,
            admitted=tuple(r.spec.request_id for r in admitted),
            restores_started=restores_started,
            restores_completed=restores_completed,
            prefill_chunks=tuple(
                (r.spec.request_id, take) for r, take in plan.prefill_chunks
            ),
            decode_sessions=plan.decode_session_ids,
            finished=tuple(finished),
            model_calls=result.model_calls,
        )

    def _prefill_order(self, prefilling: list[_Request]) -> list[_Request]:
        """SLO-aware prefill order: earliest TTFT deadline first.

        Requests without an SLO sort last among themselves in FCFS order
        (the sort is stable), so mixing SLO and best-effort traffic keeps
        the legacy behaviour for the latter.
        """
        deadline: dict[str, float] = {}
        for request in prefilling:
            slo = self._tracked[request.spec.request_id].serving.slo_ttft_s
            deadline[request.spec.request_id] = (
                float("inf") if slo is None else request.spec.arrival_time + slo
            )
        return sorted(prefilling, key=lambda r: deadline[r.spec.request_id])

    def _start_admitted(
        self, admitted: list[_Request], now: float
    ) -> tuple[str, ...]:
        """Move admitted requests into RESTORING or PREFILLING."""
        config = self.engine.transformer.config
        sync_restore: list[_Request] = []
        started: list[str] = []
        for request in admitted:
            state = self.engine.session(request.spec.session_id)
            if state.tokens and not state.on_gpu:
                request.phase = _Phase.RESTORING
                request.restore_started_at = now
                started.append(request.spec.request_id)
                sync_restore.append(request)
            else:
                if not state.on_gpu:
                    state.kv_cache = _KVCache(config)
                state.kv_cache.reserve(request.spec.total_context)
                request.phase = _Phase.PREFILLING
        if not sync_restore:
            return tuple(started)
        reserve = {
            r.spec.session_id: r.spec.total_context for r in sync_restore
        }
        if self.overlap_restores and self.engine.executor is not None:
            futures = self.engine.executor.restore_contexts_async(
                self.engine.hcache,
                [r.spec.session_id for r in sync_restore],
                reserve_tokens=reserve,
            )
            for request in sync_restore:
                tracked = self._tracked[request.spec.request_id]
                tracked.restore_future = futures[request.spec.session_id]
        else:
            # One synchronous burst through the shared pool (or serially
            # without an executor), finished before any prefill starts.
            self.engine.restore_sessions(
                [r.spec.session_id for r in sync_restore], reserve_tokens=reserve
            )
            done = self._clock()
            for request in sync_restore:
                request.restore_finished_at = done
                request.phase = _Phase.PREFILLING
        return tuple(started)

    def _settle_restores(self) -> tuple[str, ...]:
        """Install finished background restores (calling thread only)."""
        completed: list[str] = []
        for request in self.batcher.restoring():
            tracked = self._tracked[request.spec.request_id]
            future = tracked.restore_future
            if future is None or not future.done():
                continue
            tracked.restore_future = None
            cache = future.result()  # a failed restore propagates here
            state = self.engine.session(request.spec.session_id)
            state.kv_cache = cache
            request.restore_finished_at = self._clock()
            request.phase = _Phase.PREFILLING
            completed.append(request.spec.request_id)
        return tuple(completed)

    def _finish(self, tracked: _Tracked) -> None:
        request = tracked.request
        session_id = request.spec.session_id
        request.mark_finished(self._clock())
        self.batcher.release(request)
        self._finished_ids.add(request.spec.request_id)
        self.metrics.observe(request)
        if self._session_tail.get(session_id) == request.spec.request_id:
            del self._session_tail[session_id]
        restore_seconds = 0.0
        if request.restore_finished_at == request.restore_finished_at:  # not NaN
            if request.restore_started_at == request.restore_started_at:
                restore_seconds = (
                    request.restore_finished_at - request.restore_started_at
                )
        self._responses[request.spec.request_id] = _ServingResponse(
            request_id=request.spec.request_id,
            session_id=session_id,
            tokens=tuple(tracked.emitted),
            arrival_time=request.spec.arrival_time,
            admitted_at=request.admitted_at,
            first_token_at=request.first_token_at,
            finished_at=request.finished_at,
            restore_seconds=restore_seconds,
        )
        if self.evict_on_finish and session_id not in self._session_tail:
            self.engine.evict(session_id)

    # -- draining ------------------------------------------------------

    def stream(self, handle: RequestHandle) -> _Iterator[int]:
        """Yield ``handle``'s tokens, driving :meth:`step` while starved."""
        tracked = self._tracked[handle.request_id]
        emitted = 0
        while True:
            while emitted < len(tracked.emitted):
                yield tracked.emitted[emitted]
                emitted += 1
            if tracked.request.phase is _Phase.FINISHED:
                return
            self._checked_step()

    def run_until_idle(self, max_steps: int | None = None) -> list[_IterationStats]:
        """Drive :meth:`step` until every submitted request finished."""
        stats: list[_IterationStats] = []
        while not self.batcher.idle:
            if max_steps is not None and len(stats) >= max_steps:
                raise _SchedulingError(
                    f"serving loop still busy after {max_steps} steps "
                    f"({self.n_running} running, {self.queue_depth} queued)"
                )
            stats.append(self._checked_step())
        return stats

    def _checked_step(self) -> _IterationStats:
        """One step that refuses to spin forever on a stalled loop."""
        stats = self.step()
        if (
            not stats.has_work
            and not stats.admitted
            and not stats.restores_started
            and not stats.restores_completed
            and not self.batcher.restoring()
            and not self.batcher.idle
        ):
            raise _SchedulingError(
                "serving loop stalled: queued work exists but nothing can be "
                "admitted or executed (check the admission gate and budget)"
            )
        return stats
