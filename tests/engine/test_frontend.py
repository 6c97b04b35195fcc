"""The submit/step/stream serving front end over the numeric engine.

The redesign's central equivalence: driving requests through
``ServingFrontend`` (admission control + SLO scheduling + fused
iterations) must generate exactly the token streams the legacy
``chat_round`` path produced, with KV caches inside the
``BATCHED_DECODE_ATOL`` band — while issuing at most one batched model
call per iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.engine import (
    MemoryBudget,
    NumericServingEngine,
    ServingFrontend,
    ServingRequest,
)
from repro.errors import AdmissionError, ConfigError, StateError
from repro.models.transformer import BATCHED_DECODE_ATOL
from repro.runtime.executor import RestoreExecutor
from repro.storage.manager import StorageManager


@pytest.fixture
def make_engine(tiny_model, default_platform):
    def build(executor=None):
        storage = StorageManager(build_storage_array(default_platform))
        return NumericServingEngine(
            tiny_model, HCacheEngine(tiny_model, storage), executor=executor
        )

    return build


def _prompts(config, sizes, seed):
    rng = np.random.default_rng(seed)
    return {
        f"s{i}": rng.integers(0, config.vocab_size, size=size)
        for i, size in enumerate(sizes)
    }


class TestEquivalence:
    def test_matches_serial_chat_round(self, make_engine, tiny_config):
        prompts = _prompts(tiny_config, [9, 4, 13], seed=51)
        serial = make_engine()
        for s in prompts:
            serial.open_session(s)
        ref = {s: serial.chat_round(s, p, 6) for s, p in prompts.items()}

        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handles = {
            s: frontend.submit(
                ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=6)
            )
            for s, p in prompts.items()
        }
        frontend.run_until_idle(max_steps=500)
        for s in prompts:
            assert list(handles[s].result().tokens) == ref[s]
            assert engine.session(s).tokens == serial.session(s).tokens
            assert engine.session(s).kv_cache.equals(
                serial.session(s).kv_cache, atol=BATCHED_DECODE_ATOL
            )

    def test_second_round_restores_evicted_history(self, make_engine, tiny_config):
        """evict_on_finish + resubmission: the restore burst must be
        transparent — same tokens as a never-evicted serial session."""
        prompts = _prompts(tiny_config, [8, 6], seed=53)
        second = _prompts(tiny_config, [5, 7], seed=54)
        serial = make_engine()
        for s in prompts:
            serial.open_session(s)
            serial.chat_round(s, prompts[s], 3)
        ref = {s: serial.chat_round(s, second[s], 3) for s in prompts}

        engine = make_engine()
        frontend = ServingFrontend(
            engine, MemoryBudget(capacity_tokens=4096), evict_on_finish=True
        )
        for s, p in prompts.items():
            frontend.submit(ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=3))
        frontend.run_until_idle(max_steps=200)
        for s in prompts:
            assert not engine.session(s).on_gpu  # evicted after round 1
        handles = {
            s: frontend.submit(
                ServingRequest(session_id=s, prompt_tokens=second[s], max_new_tokens=3)
            )
            for s in prompts
        }
        stats = frontend.run_until_idle(max_steps=200)
        assert {s: list(h.result().tokens) for s, h in handles.items()} == ref
        assert any(st.restores_started for st in stats)
        for s in prompts:
            assert engine.session(s).tokens == serial.session(s).tokens

    def test_overlapped_restores_match_sync_restores(
        self, make_engine, tiny_config
    ):
        """Background restore_contexts_async produces the same streams."""
        prompts = _prompts(tiny_config, [6, 9], seed=55)
        second = _prompts(tiny_config, [4, 5], seed=56)

        def run(overlap):
            executor = RestoreExecutor(max_concurrent_restores=2) if overlap else None
            engine = make_engine(executor=executor)
            frontend = ServingFrontend(
                engine,
                MemoryBudget(capacity_tokens=4096),
                evict_on_finish=True,
                overlap_restores=overlap,
            )
            try:
                for s, p in prompts.items():
                    frontend.submit(
                        ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=3)
                    )
                frontend.run_until_idle(max_steps=300)
                handles = {
                    s: frontend.submit(
                        ServingRequest(
                            session_id=s, prompt_tokens=second[s], max_new_tokens=3
                        )
                    )
                    for s in prompts
                }
                frontend.run_until_idle(max_steps=300)
                return {s: list(h.result().tokens) for s, h in handles.items()}
            finally:
                if executor is not None:
                    executor.close()

        assert run(overlap=True) == run(overlap=False)


class TestFusedIterationContract:
    def test_at_most_one_model_call_per_step(
        self, make_engine, tiny_config, monkeypatch
    ):
        """Regression pin for the serial-prefill inefficiency: every step
        — mixed prefill + decode included — issues at most one batched
        transformer call."""
        engine = make_engine()
        calls = {"n": 0}
        real_fused = engine.transformer.forward_fused
        real_decode = engine.transformer.decode_batch
        real_forward = engine.transformer.forward
        monkeypatch.setattr(
            engine.transformer,
            "forward_fused",
            lambda *a, **k: calls.__setitem__("n", calls["n"] + 1) or real_fused(*a, **k),
        )
        monkeypatch.setattr(
            engine.transformer,
            "decode_batch",
            lambda *a, **k: calls.__setitem__("n", calls["n"] + 1)
            or real_decode(*a, **k),
        )
        monkeypatch.setattr(
            engine.transformer,
            "forward",
            lambda *a, **k: calls.__setitem__("n", calls["n"] + 1)
            or real_forward(*a, **k),
        )
        # Small SplitFuse budget forces chunked prefill to overlap decode.
        from repro.engine.splitfuse import SplitFuseScheduler

        frontend = ServingFrontend(
            engine,
            MemoryBudget(capacity_tokens=4096),
            scheduler=SplitFuseScheduler(budget_tokens=8),
        )
        prompts = _prompts(tiny_config, [11, 6, 9], seed=57)
        for s, p in prompts.items():
            frontend.submit(ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=4))
        while not frontend.idle:
            before = calls["n"]
            stats = frontend.step()
            assert calls["n"] - before <= 1
            assert stats.model_calls == calls["n"] - before
            assert stats.model_calls <= 1

    def test_mixed_iteration_reports_fused_batch(self, make_engine, tiny_config):
        from repro.engine.splitfuse import SplitFuseScheduler

        engine = make_engine()
        frontend = ServingFrontend(
            engine,
            MemoryBudget(capacity_tokens=4096),
            scheduler=SplitFuseScheduler(budget_tokens=6),
        )
        prompts = _prompts(tiny_config, [10, 4], seed=58)
        for s, p in prompts.items():
            frontend.submit(ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=3))
        mixed = [
            st
            for st in frontend.run_until_idle(max_steps=200)
            if st.prefill_chunks and st.decode_sessions
        ]
        assert mixed, "expected at least one fused prefill+decode iteration"
        for st in mixed:
            assert st.model_calls == 1
            assert st.batch_size == len(st.prefill_chunks) + len(st.decode_sessions)


class TestAdmissionControl:
    def test_impossible_request_is_rejected_typed(self, make_engine, tiny_config):
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=64))
        with pytest.raises(AdmissionError):
            frontend.submit(
                ServingRequest(
                    session_id="big",
                    prompt_tokens=np.arange(60) % tiny_config.vocab_size,
                    max_new_tokens=10,
                )
            )
        assert frontend.rejected_requests == 1

    def test_queue_backpressure(self, make_engine, tiny_config):
        engine = make_engine()
        frontend = ServingFrontend(
            engine, MemoryBudget(capacity_tokens=4096), max_queue=2
        )
        for i in range(2):
            frontend.submit(
                ServingRequest(
                    session_id=f"q{i}", prompt_tokens=np.array([1, 2]), max_new_tokens=1
                )
            )
        with pytest.raises(AdmissionError):
            frontend.submit(
                ServingRequest(
                    session_id="q2", prompt_tokens=np.array([1]), max_new_tokens=1
                )
            )

    def test_memory_admission_never_exceeds_budget(self, make_engine, tiny_config):
        capacity = 80
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=capacity))
        for i in range(6):
            frontend.submit(
                ServingRequest(
                    session_id=f"m{i}",
                    prompt_tokens=np.arange(10) % tiny_config.vocab_size,
                    max_new_tokens=10,
                )
            )
        while not frontend.idle:
            frontend.step()
            assert frontend.batcher.reserved_tokens <= capacity

    def test_duplicate_request_id_rejected(self, make_engine, tiny_config):
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        request = ServingRequest(
            session_id="s",
            prompt_tokens=np.array([1, 2]),
            max_new_tokens=1,
            request_id="dup",
        )
        frontend.submit(request)
        with pytest.raises(ConfigError):
            frontend.submit(request)


class TestSloScheduling:
    def test_edf_orders_prefill_by_deadline(self, make_engine, tiny_config):
        """With a tight SplitFuse budget, the urgent request prefills
        first even though it was submitted last."""
        from repro.engine.splitfuse import SplitFuseScheduler

        engine = make_engine()
        frontend = ServingFrontend(
            engine,
            MemoryBudget(capacity_tokens=4096),
            scheduler=SplitFuseScheduler(budget_tokens=8),
        )
        relaxed = frontend.submit(
            ServingRequest(
                session_id="relaxed",
                prompt_tokens=np.arange(8) % tiny_config.vocab_size,
                max_new_tokens=2,
                arrival_time=0.0,
                slo_ttft_s=100.0,
            )
        )
        urgent = frontend.submit(
            ServingRequest(
                session_id="urgent",
                prompt_tokens=np.arange(8) % tiny_config.vocab_size,
                max_new_tokens=2,
                arrival_time=0.0,
                slo_ttft_s=0.001,
            )
        )
        stats = frontend.run_until_idle(max_steps=100)
        first_chunks = next(st for st in stats if st.prefill_chunks).prefill_chunks
        assert first_chunks[0][0] == urgent.request_id
        assert relaxed.result().tokens  # both still finish


class TestStreamingAndHandles:
    def test_stream_yields_all_tokens(self, make_engine, tiny_config):
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        prompt = np.arange(5) % tiny_config.vocab_size
        handle = frontend.submit(
            ServingRequest(session_id="s", prompt_tokens=prompt, max_new_tokens=4)
        )
        streamed = list(frontend.stream(handle))
        assert streamed == list(handle.result().tokens)
        assert len(streamed) == 4

    def test_result_raises_until_finished(self, make_engine, tiny_config):
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handle = frontend.submit(
            ServingRequest(
                session_id="s", prompt_tokens=np.array([1, 2]), max_new_tokens=1
            )
        )
        with pytest.raises(StateError):
            handle.result()
        frontend.run_until_idle(max_steps=50)
        response = handle.result()
        assert response.ttft >= 0.0
        assert response.finished_at >= response.first_token_at

    def test_dependent_rounds_of_one_session_run_in_order(
        self, make_engine, tiny_config
    ):
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        first = frontend.submit(
            ServingRequest(
                session_id="s", prompt_tokens=np.array([1, 2, 3]), max_new_tokens=2
            )
        )
        second = frontend.submit(
            ServingRequest(
                session_id="s", prompt_tokens=np.array([4, 5]), max_new_tokens=2
            )
        )
        frontend.run_until_idle(max_steps=200)
        assert first.result().finished_at <= second.result().first_token_at
        # round 2 saw round 1's full history
        assert len(engine.session("s").tokens) == 3 + 2 + 2 + 2


class TestTimeline:
    def test_tbt_excludes_the_final_feed_and_save_iteration(
        self, make_engine, tiny_config
    ):
        """A clock advancing 1s per step emits 4 tokens at t = 1, 2, 3, 4;
        the request then retires at t = 5, after the iteration that feeds
        and saves the last token — which is not a token gap."""
        t = [0.0]
        frontend = ServingFrontend(
            make_engine(), MemoryBudget(capacity_tokens=4096), clock=lambda: t[0]
        )
        handle = frontend.submit(
            ServingRequest(
                session_id="s",
                prompt_tokens=np.arange(5) % tiny_config.vocab_size,
                max_new_tokens=4,
            )
        )
        while not frontend.idle:
            t[0] += 1.0
            frontend.step()
        response = handle.result()
        assert (response.first_token_at, response.last_token_at) == (1.0, 4.0)
        assert response.finished_at == 5.0
        assert response.tpot == 1.0
        assert frontend.metrics.records[0].tbt == 1.0


class TestBoundedBookkeeping:
    def test_per_request_state_stays_at_in_flight_size(self, make_engine, tiny_config):
        """2000 one-token rounds over fresh sessions: nothing keyed by
        request outlives the request — its handle keeps the result."""
        frontend = ServingFrontend(make_engine(), MemoryBudget(capacity_tokens=4096))
        prompt = np.array([1, 2]) % tiny_config.vocab_size
        first = None
        for i in range(2000):
            handle = frontend.submit(
                ServingRequest(session_id=f"s{i}", prompt_tokens=prompt, max_new_tokens=1)
            )
            first = first or handle
            frontend.run_until_idle(max_steps=10)
            containers = (
                frontend._in_flight,
                frontend._finished_deps,
                frontend._session_tail,
                frontend.batcher.queue,
                frontend.batcher.running,
            )
            assert not any(containers)
        assert len(first.result().tokens) == len(first.tokens()) == 1
        # What does grow is the caller's to drain: one metrics record each.
        assert len(frontend.metrics) == 2000

    def test_a_finished_id_is_kept_only_while_a_queued_round_depends_on_it(
        self, make_engine, tiny_config
    ):
        frontend = ServingFrontend(make_engine(), MemoryBudget(capacity_tokens=4096))
        prompt = np.array([1, 2]) % tiny_config.vocab_size
        for _ in range(2):
            frontend.submit(
                ServingRequest(session_id="s", prompt_tokens=prompt, max_new_tokens=1)
            )
        seen = set()
        while not frontend.idle:
            frontend.step()
            seen |= frontend._finished_deps
            assert len(frontend._finished_deps) <= 1
        assert seen == {"s/r0"} and not frontend._finished_deps
