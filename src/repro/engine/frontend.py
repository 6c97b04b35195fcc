"""The serving loop: submit/step/stream with admission control.

The loop the paper's restoration primitive exists to feed (§5): requests
arrive continuously, admission control gates them on KV memory (and
optionally block-pool headroom), evicted histories restore while
resident sessions keep decoding, and every iteration executes as **one**
fused prefill+decode call.  It is the only such loop in the repo: what
executes an iteration sits behind the
:class:`~repro.engine.api.ServingEngine` seam — real forward passes
(:class:`~repro.engine.numeric_engine.NumericServingEngine`) or the
paper's cost model on a virtual clock
(:class:`~repro.engine.serving.CostModelEngine`).

Ownership and threading rules (the event-loop contract):

- **Calling thread owns everything mutable**: the queue, the batcher,
  the requests and every engine call run on whichever thread calls
  :meth:`ServingFrontend.step`.  The front end is not itself thread-safe
  — one driver thread, like an asyncio loop.
- **A restoring session is out of every plan until the engine reports
  it**: it sits in the RESTORING phase from ``start_restores`` until
  ``finished_restores`` names it, so the engine may restore it on other
  threads — no iteration touches (or saves to) that session meanwhile.
  The engine may report it while its last layers land; the iteration
  that then carries its prompt waits per layer *inside the engine*, and
  nothing here changes — a reported session is a plannable session.

This module's ``__all__`` and its imports are pinned by the
``frontend-api`` lint rule.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING as _TYPE_CHECKING
from typing import Callable as _Callable
from typing import Iterator as _Iterator

from repro.engine.api import IterationStats as _IterationStats
from repro.engine.api import ServingEngine as _ServingEngine
from repro.engine.api import ServingRequest as _ServingRequest
from repro.engine.api import ServingResponse as _ServingResponse
from repro.engine.batching import ContinuousBatcher as _ContinuousBatcher
from repro.engine.batching import MemoryBudget as _MemoryBudget
from repro.engine.metrics import MetricsCollector as _MetricsCollector
from repro.engine.request import Phase as _Phase
from repro.engine.request import Request as _Request
from repro.engine.request import RequestSpec as _RequestSpec
from repro.engine.splitfuse import SplitFuseScheduler as _SplitFuseScheduler
from repro.errors import AdmissionError as _AdmissionError
from repro.errors import ConfigError as _ConfigError
from repro.errors import SchedulingError as _SchedulingError
from repro.errors import StateError as _StateError

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


class RequestHandle:
    """Caller-facing view of one submitted request.

    Holds the request itself (and, once asked for, its finished
    response), so the front end keeps nothing per request once it
    retires.
    """

    __slots__ = ("request", "request_id", "session_id", "_response")

    def __init__(self, request: _Request) -> None:
        self.request = request
        self.request_id = request.spec.request_id
        self.session_id = request.spec.session_id
        self._response: _ServingResponse | None = None

    def __repr__(self) -> str:
        return f"RequestHandle({self.request_id!r}, session={self.session_id!r})"

    @property
    def phase(self) -> _Phase:
        return self.request.phase

    @property
    def finished(self) -> bool:
        return self.phase is _Phase.FINISHED

    def tokens(self) -> tuple[int, ...]:
        """Tokens generated so far (the full stream once finished)."""
        return tuple(self.request.emitted)

    def result(self) -> _ServingResponse:
        """The finished response; raises until the request finishes."""
        if self._response is None:
            if not self.finished:
                raise _StateError(
                    f"request {self.request_id!r} has not finished "
                    f"(phase {self.phase.value}); drive step() or stream() first"
                )
            request = self.request
            self._response = _ServingResponse(
                request_id=self.request_id,
                session_id=self.session_id,
                tokens=self.tokens(),
                arrival_time=request.spec.arrival_time,
                admitted_at=request.admitted_at,
                first_token_at=request.first_token_at,
                last_token_at=request.last_token_at,
                finished_at=request.finished_at,
                restore_seconds=request.restore_seconds,
            )
        return self._response


class ServingFrontend:
    """Concurrent request loop over a :class:`~repro.engine.api.ServingEngine`.

    ``submit`` enqueues typed requests (rejecting impossible ones with
    :class:`~repro.errors.AdmissionError`), ``step`` runs one
    admit → restore → plan → execute → retire cycle and reports it as an
    :class:`~repro.engine.api.IterationStats`, and ``stream`` yields a
    request's tokens as iterations produce them.

    Args:
        engine: What executes the iterations and holds the sessions.
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
        overlap_restores: Forwarded to the engine's ``start_restores``:
            restore admitted-but-evicted sessions in the background
            while decode continues, where the engine is able to.
        evict_on_finish: Evict a session when its last in-flight request
            finishes (the next round restores it) — the high-churn
            configuration a million-session trace needs.  Default keeps
            finished sessions resident.
        clock: Timestamp source (seconds, monotonic); default
            ``time.perf_counter``.  Injectable for deterministic tests
            and for engines that keep virtual time.
    """

    def __init__(
        self,
        engine: _ServingEngine,
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
        self._rejected = 0
        self._iteration = 0
        #: Ids of submitted, unfinished requests (the duplicate-id check).
        self._in_flight: set[str] = set()
        #: Finished ids a queued round still ``depends_on``; dropped when
        #: that round is admitted.
        self._finished_deps: set[str] = set()
        #: Last submitted (not yet finished) request per session: the next
        #: round depends on it and builds on the context it will leave.
        self._session_tail: dict[str, _Request] = {}
        self._round_counter: dict[str, int] = {}

    # -- submission ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.batcher.queue)

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
            ConfigError: if ``request_id`` names a request still in flight.
        """
        session_id = request.session_id
        if request.request_id is None:
            n = self._round_counter.get(session_id, 0)
            self._round_counter[session_id] = n + 1
            request_id = f"{session_id}/r{n}"
        else:
            request_id = request.request_id
        if request_id in self._in_flight:
            raise _ConfigError(f"request id {request_id!r} was already submitted")

        if not self.engine.has_session(session_id):
            self.engine.open_session(session_id)
        # With no round in flight the history is the session's real log
        # (it may have been served outside this front end); otherwise it
        # is what the rounds ahead of this one will leave behind.
        tail = self._session_tail.get(session_id)
        if tail is None:
            history = self.engine.history_length(session_id)
        else:
            history = tail.spec.total_context
        now = self._clock()
        arrival = request.arrival_time if request.arrival_time is not None else now
        spec = _RequestSpec(
            request_id=request_id,
            session_id=session_id,
            arrival_time=arrival,
            history_tokens=history,
            input_tokens=int(request.prompt_tokens.size),
            output_tokens=request.max_new_tokens,
            depends_on=None if tail is None else tail.spec.request_id,
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
        slo = request.slo_ttft_s
        queued = _Request(
            spec=spec,
            prompt=request.prompt_tokens,
            deadline=float("inf") if slo is None else arrival + slo,
        )
        self.batcher.enqueue(queued)
        self._in_flight.add(request_id)
        self._session_tail[session_id] = queued
        return RequestHandle(queued)

    # -- the iteration loop --------------------------------------------

    def step(self) -> _IterationStats:
        """Run one serving iteration; at most one batched model call.

        The one order: **admit** queued requests FCFS under the KV budget
        + gate → **start restores** for the admitted rounds whose history
        is evicted → **settle** whatever restores have finished (after
        the start, so a synchronous restore, a free one and a background
        one that completed since the last step are the same case) →
        **plan** the SplitFuse token budget over decoding + prefilling
        requests, prefills in earliest-TTFT-deadline order → **execute**
        the plan as one fused engine call → **retire** requests whose
        final token has now been fed and saved.
        """
        now = self._clock()
        index = self._iteration
        self._iteration += 1
        admitted = self.batcher.admit(
            now, finished_sessions=self._finished_deps, admission_gate=self.admission_gate
        )
        restores_started = self._start_admitted(admitted, now)
        restores_completed = self._settle_restores()
        # Earliest TTFT deadline first; the sort is stable, so best-effort
        # requests (deadline inf) keep FCFS order behind the SLO traffic.
        prefilling = sorted(self.batcher.prefilling(), key=lambda r: r.deadline)
        plan = self.scheduler.plan(self.batcher.decoding(), prefilling)
        stats = dict(
            index=index,
            time=now,
            admitted=tuple(r.spec.request_id for r in admitted),
            restores_started=restores_started,
            restores_completed=restores_completed,
        )
        if not plan.has_work:
            if self.batcher.restoring():
                self.engine.wait_for_restores()
            return _IterationStats(model_calls=0, **stats)

        chunks = []
        for request, take in plan.prefill_chunks:
            done = request.spec.input_tokens - request.prefill_remaining
            chunks.append((request.spec.session_id, request.prompt[done : done + take]))
        # Every generated token is fed back through the model, the last
        # one included, so the engine's log and saved state cover the
        # whole stream.
        decode_tokens = {
            request.spec.session_id: request.emitted[-1]
            for request in plan.decode_requests
        }
        result = self.engine.execute_iteration(chunks, decode_tokens)
        done_at = self._clock()

        finished: list[str] = []
        for request, take in plan.prefill_chunks:
            request.prefill_remaining -= take
            if request.prefill_remaining == 0:
                request.emit(int(result.next_tokens[request.spec.session_id]), done_at)
        for request in plan.decode_requests:
            if len(request.emitted) < request.spec.output_tokens:
                request.emit(int(result.next_tokens[request.spec.session_id]), done_at)
            else:
                self._finish(request)
                finished.append(request.spec.request_id)
        return _IterationStats(
            prefill_chunks=tuple(
                (r.spec.request_id, take) for r, take in plan.prefill_chunks
            ),
            decode_sessions=plan.decode_session_ids,
            finished=tuple(finished),
            model_calls=result.model_calls,
            **stats,
        )

    def _start_admitted(
        self, admitted: list[_Request], now: float
    ) -> tuple[str, ...]:
        """Move admitted requests into RESTORING or PREFILLING."""
        restoring: list[_Request] = []
        for request in admitted:
            self._finished_deps.discard(request.spec.depends_on)
            if self.engine.begin_round(request.spec.session_id, request.spec.total_context):
                request.phase = _Phase.RESTORING
                request.restore_started_at = now
                restoring.append(request)
            else:
                request.phase = _Phase.PREFILLING
        if restoring:
            self.engine.start_restores(
                {r.spec.session_id: r.spec.total_context for r in restoring},
                background=self.overlap_restores,
            )
        return tuple(r.spec.request_id for r in restoring)

    def _settle_restores(self) -> tuple[str, ...]:
        """Move requests whose restore the engine finished to PREFILLING."""
        restoring = self.batcher.restoring()
        if not restoring:
            return ()
        resident = set(self.engine.finished_restores())
        completed = [r for r in restoring if r.spec.session_id in resident]
        done_at = self._clock()
        for request in completed:
            request.restore_finished_at = done_at
            request.phase = _Phase.PREFILLING
        return tuple(r.spec.request_id for r in completed)

    def _finish(self, request: _Request) -> None:
        request_id, session_id = request.spec.request_id, request.spec.session_id
        request.mark_finished(self._clock())
        self.batcher.release(request)
        self._in_flight.discard(request_id)
        self.metrics.observe(request)
        if self._session_tail[session_id] is not request:
            # The session's next round is queued behind this one.
            self._finished_deps.add(request_id)
            return
        del self._session_tail[session_id]
        if self.evict_on_finish:
            self.engine.evict(session_id)

    # -- draining ------------------------------------------------------

    def stream(self, handle: RequestHandle) -> _Iterator[int]:
        """Yield ``handle``'s tokens, driving :meth:`step` while starved."""
        request = handle.request
        emitted = 0
        while True:
            while emitted < len(request.emitted):
                yield request.emitted[emitted]
                emitted += 1
            if request.phase is _Phase.FINISHED:
                return
            self._checked_step()

    def run_until_idle(self, max_steps: int | None = None) -> list[_IterationStats]:
        """Drive :meth:`step` until every submitted request finished."""
        stats: list[_IterationStats] = []
        while not self.batcher.idle:
            if max_steps is not None and len(stats) >= max_steps:
                raise _SchedulingError(
                    f"serving loop still busy after {max_steps} steps "
                    f"({len(self.batcher.running)} running, {self.queue_depth} queued)"
                )
            stats.append(self._checked_step())
        return stats

    def _checked_step(self) -> _IterationStats:
        """One step that refuses to spin forever on a stalled loop."""
        stats = self.step()
        if (
            not stats.has_work
            and not stats.admitted
            and not stats.restores_completed
            and not self.batcher.restoring()
            and not self.batcher.idle
        ):
            raise _SchedulingError(
                "serving loop stalled: queued work exists but nothing can be "
                "admitted or executed (check the admission gate and budget)"
            )
        return stats
