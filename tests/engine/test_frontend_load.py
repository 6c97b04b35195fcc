"""Front-end load test over a 10^5-session Zipf population.

The paper's front-end sweep draws requests from 10^5–10^6 distinct
sessions with Zipfian popularity (§6.4) at Poisson arrival rates
(§6.1.1).  Running real numpy forwards at that scale is pointless — the
value path has its own equivalence tests — so this test drives the real
``ServingFrontend`` (real admission control, scheduler, dependency
chains, restore phases) over a fake engine whose ``execute_iteration``
only does token bookkeeping, and checks the scheduling invariants:

- KV reservations never exceed the budget, on any step;
- impossible requests and queue overflow are rejected with the *typed*
  ``AdmissionError``, never a deep crash;
- everything admitted finishes with exactly its token budget, across
  repeated rounds (evict-on-finish + restore) of hot Zipf sessions.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.engine import IterationResult, MemoryBudget, ServingFrontend
from repro.errors import AdmissionError, StateError
from repro.traces import ShareGPTGenerator, zipf_session_workload

N_SESSIONS = 120_000
N_REQUESTS = 1_500


class _FakeSession:
    __slots__ = ("session_id", "tokens", "on_gpu")

    def __init__(self, session_id):
        self.session_id = session_id
        self.tokens = []
        self.on_gpu = False


class _FakeEngine:
    """Bookkeeping-only stand-in honouring the ``ServingEngine`` seam."""

    def __init__(self):
        self.sessions = {}
        self.restored_sessions = 0
        self._restored = []

    def has_session(self, session_id):
        return session_id in self.sessions

    def open_session(self, session_id):
        if session_id in self.sessions:
            raise StateError(f"session {session_id!r} already open")
        self.sessions[session_id] = _FakeSession(session_id)
        return self.sessions[session_id]

    def session(self, session_id):
        return self.sessions[session_id]

    def history_length(self, session_id):
        return len(self.sessions[session_id].tokens)

    def begin_round(self, session_id, total_context):
        state = self.sessions[session_id]
        return bool(state.tokens) and not state.on_gpu

    def start_restores(self, reserve_tokens, *, background):
        for session_id in reserve_tokens:
            state = self.sessions[session_id]
            assert state.tokens and not state.on_gpu
            state.on_gpu = True
            self.restored_sessions += 1
            self._restored.append(session_id)

    def finished_restores(self):
        done, self._restored = self._restored, []
        return done

    def wait_for_restores(self):
        raise AssertionError("restores settle in the step that starts them")

    def evict(self, session_id):
        self.sessions[session_id].on_gpu = False

    def execute_iteration(self, prefill_chunks=(), decode_tokens=None):
        decode = dict(decode_tokens) if decode_tokens else {}
        next_tokens = {}
        for session_id, tokens in prefill_chunks:
            state = self.sessions[session_id]
            assert state.on_gpu or not state.tokens
            state.on_gpu = True
            state.tokens.extend(int(t) for t in np.asarray(tokens))
            next_tokens[session_id] = len(state.tokens) % 997
        for session_id, token in decode.items():
            state = self.sessions[session_id]
            assert state.on_gpu and state.tokens
            state.tokens.append(int(token))
            next_tokens[session_id] = len(state.tokens) % 997
        return IterationResult(next_tokens=next_tokens, model_calls=1)


@pytest.fixture(scope="module")
def load_run(tiny_config):
    """One shared high-churn run (module-scoped: it is the slow part)."""
    capacity = 2_048
    engine = _FakeEngine()
    frontend = ServingFrontend(
        engine,
        MemoryBudget(capacity_tokens=capacity),
        max_running=64,
        max_queue=N_REQUESTS,
        evict_on_finish=True,
    )
    # Short rounds keep the step count bounded; the *population* is what
    # must be large (>= 1e5 distinct Zipf sessions).
    lengths = ShareGPTGenerator(
        seed=9, mean_input=12.0, mean_output=6.0, max_round_tokens=48
    )
    requests = list(
        zipf_session_workload(
            N_SESSIONS,
            N_REQUESTS,
            rate_per_second=500.0,
            alpha=1.1,
            seed=9,
            generator=lengths,
            vocab_size=tiny_config.vocab_size,
        )
    )
    handles = []
    admission_errors = 0
    max_reserved = 0
    for request in requests:
        try:
            handles.append(frontend.submit(request))
        except AdmissionError:
            admission_errors += 1
        # Interleave service with arrivals so the queue drains under load.
        if len(frontend.batcher.queue) > 128:
            frontend.step()
            max_reserved = max(max_reserved, frontend.batcher.reserved_tokens)
            assert frontend.batcher.reserved_tokens <= capacity
    for _ in itertools.count():
        if frontend.idle:
            break
        frontend.step()
        max_reserved = max(max_reserved, frontend.batcher.reserved_tokens)
        assert frontend.batcher.reserved_tokens <= capacity
    return {
        "engine": engine,
        "frontend": frontend,
        "requests": requests,
        "handles": handles,
        "admission_errors": admission_errors,
        "capacity": capacity,
        "max_reserved": max_reserved,
    }


def test_population_is_at_least_1e5_distinct_sessions(load_run):
    assert N_SESSIONS >= 100_000
    distinct = {r.session_id for r in load_run["requests"]}
    assert 1 < len(distinct) <= N_SESSIONS
    # Zipf popularity: repeats exist (hot sessions get multiple rounds).
    assert len(distinct) < len(load_run["requests"])


def test_admission_never_exceeded_capacity(load_run):
    assert load_run["max_reserved"] <= load_run["capacity"]
    # The budget was actually contended, not trivially satisfied.
    assert load_run["max_reserved"] > load_run["capacity"] // 2


def test_every_admitted_request_finished_with_its_budget(load_run):
    assert load_run["handles"], "no requests were admitted"
    for handle in load_run["handles"]:
        assert handle.finished
        assert len(handle.result().tokens) == handle.request.spec.output_tokens


def test_hot_sessions_were_evicted_and_restored(load_run):
    engine = load_run["engine"]
    assert engine.restored_sessions > 0
    # Multi-round sessions accumulated every round's tokens.
    rounds_per_session = {}
    for handle in load_run["handles"]:
        rounds_per_session.setdefault(handle.session_id, []).append(handle)
    multi = {s: hs for s, hs in rounds_per_session.items() if len(hs) > 1}
    assert multi, "Zipf skew should produce multi-round sessions"
    for session_id, handles in multi.items():
        expected = sum(
            h.request.spec.input_tokens + h.request.spec.output_tokens for h in handles
        )
        assert len(engine.session(session_id).tokens) == expected


def test_oversized_request_rejection_is_typed(load_run):
    frontend = load_run["frontend"]
    from repro.engine import ServingRequest

    before = frontend.rejected_requests
    with pytest.raises(AdmissionError):
        frontend.submit(
            ServingRequest(
                session_id="whale",
                prompt_tokens=np.arange(load_run["capacity"] + 1) % 1000,
                max_new_tokens=1,
            )
        )
    assert frontend.rejected_requests == before + 1
