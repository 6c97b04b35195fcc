"""The submit/step/stream serving front end over the numeric engine.

The redesign's central equivalence: driving requests through
``ServingFrontend`` (admission control + SLO scheduling + fused
iterations) must generate exactly the token streams of the serial
oracle (a never-evicted ``Transformer.forward`` loop), with KV caches
inside the ``BATCHED_DECODE_ATOL`` band — while issuing at most one batched model
call per iteration.
"""

from __future__ import annotations

import gc
import weakref

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
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
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
    def test_matches_serial_forward_oracle(
        self, make_engine, tiny_model, tiny_config, reference_rounds
    ):
        prompts = _prompts(tiny_config, [9, 4, 13], seed=51)
        caches = {s: KVCache(tiny_config) for s in prompts}
        ref = {s: reference_rounds(tiny_model, [p], 6, caches[s])[0] for s, p in prompts.items()}

        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handles = {
            s: frontend.submit(
                ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=6)
            )
            for s, p in prompts.items()
        }
        frontend.run_until_idle(max_steps=500)
        for s, p in prompts.items():
            assert list(handles[s].result().tokens) == ref[s]
            assert engine.session(s).tokens == [*p, *ref[s]]
            assert engine.session(s).kv_cache.equals(caches[s], atol=BATCHED_DECODE_ATOL)

    def test_second_round_restores_evicted_history(
        self, make_engine, tiny_model, tiny_config, reference_rounds
    ):
        """evict_on_finish + resubmission: the restore burst must be
        transparent — same tokens as a never-evicted serial session."""
        prompts = _prompts(tiny_config, [8, 6], seed=53)
        second = _prompts(tiny_config, [5, 7], seed=54)
        rounds = {s: reference_rounds(tiny_model, [prompts[s], second[s]], 3) for s in prompts}
        ref = {s: rounds[s][1] for s in prompts}

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
            first, last = rounds[s]
            assert engine.session(s).tokens == [*prompts[s], *first, *second[s], *last]

    def test_overlapped_restores_match_sync_restores(
        self, make_engine, tiny_config
    ):
        """Background restore_contexts_async produces the same streams."""
        prompts = _prompts(tiny_config, [6, 9], seed=55)
        second = _prompts(tiny_config, [4, 5], seed=56)

        def run(overlap):
            executor = RestoreExecutor() if overlap else None
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
        monkeypatch.setitem(
            vars(engine.transformer),
            "forward_fused",
            lambda *a, **k: calls.__setitem__("n", calls["n"] + 1) or real_fused(*a, **k),
        )
        monkeypatch.setitem(
            vars(engine.transformer),
            "decode_batch",
            lambda *a, **k: calls.__setitem__("n", calls["n"] + 1)
            or real_decode(*a, **k),
        )
        monkeypatch.setitem(
            vars(engine.transformer),
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

    def test_a_rejected_request_leaves_nothing_behind(self, make_engine, tiny_config):
        """No session opened, no storage context registered, no round
        number used up — whichever check refuses it."""
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=16), max_queue=1)

        def request(session_id, n_prompt):
            return ServingRequest(
                session_id=session_id,
                prompt_tokens=np.arange(n_prompt) % tiny_config.vocab_size,
                max_new_tokens=2,
            )

        frontend.submit(request("a", 4))
        with pytest.raises(AdmissionError, match="queue is full"):
            frontend.submit(request("b", 4))
        with pytest.raises(AdmissionError, match="never be admitted"):
            frontend.submit(request("c", 40))
        assert frontend.rejected_requests == 2
        assert not engine.has_session("b") and not engine.has_session("c")
        assert engine.hcache.storage.context_ids() == ("a",)
        frontend.run_until_idle(max_steps=50)
        # The retry is the session's first round, not its second.
        assert frontend.submit(request("b", 4)).request_id == "b/r0"
        assert engine.has_session("b")

    def test_a_prompt_outside_the_vocabulary_is_rejected_before_it_runs(
        self, make_engine, tiny_config
    ):
        """An id >= the model's vocabulary is refused at submit; it would
        otherwise raise ``ConfigError`` out of every later ``step()`` and
        starve the well-formed request beside it."""
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        ok = frontend.submit(
            ServingRequest(session_id="ok", prompt_tokens=np.arange(5), max_new_tokens=3)
        )
        vocab = tiny_config.vocab_size
        with pytest.raises(AdmissionError, match=f"vocabulary of {vocab}"):
            frontend.submit(
                ServingRequest(
                    session_id="bad", prompt_tokens=np.array([5, vocab]), max_new_tokens=3
                )
            )
        assert frontend.rejected_requests == 1
        assert not engine.has_session("bad")
        assert engine.hcache.storage.context_ids() == ("ok",)
        frontend.run_until_idle(max_steps=50)
        assert len(ok.result().tokens) == 3
        # The largest id is in range, and the retry is the session's first round.
        fits = frontend.submit(
            ServingRequest(
                session_id="bad", prompt_tokens=np.array([5, vocab - 1]), max_new_tokens=3
            )
        )
        assert fits.request_id == "bad/r0"

    @pytest.mark.parametrize(
        "prompt", [np.array([1.5, 2.0]), np.array([3, -1]), np.array([True, False])]
    )
    def test_a_prompt_that_is_not_token_ids_is_refused(self, prompt):
        with pytest.raises(ConfigError, match="token ids"):
            ServingRequest(session_id="s", prompt_tokens=prompt, max_new_tokens=1)

    def test_a_context_beyond_the_models_limit_is_rejected_before_it_runs(
        self, make_engine, tiny_config
    ):
        """249 prompt + 300 new tokens exceed tiny-llama's 512-token context:
        refused at submit, not as a ``ConfigError`` out of ``step()`` that
        would take the batch's other requests down too."""
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        ok = frontend.submit(
            ServingRequest(session_id="ok", prompt_tokens=np.arange(5), max_new_tokens=3)
        )
        with pytest.raises(AdmissionError, match="at most 512"):
            frontend.submit(
                ServingRequest(
                    session_id="long",
                    prompt_tokens=np.arange(249) % tiny_config.vocab_size,
                    max_new_tokens=300,
                )
            )
        assert frontend.rejected_requests == 1
        assert not engine.has_session("long")
        assert engine.hcache.storage.context_ids() == ("ok",)
        frontend.run_until_idle(max_steps=50)
        assert len(ok.result().tokens) == 3
        # The limit is inclusive, and the retry is the session's first round.
        fits = frontend.submit(
            ServingRequest(
                session_id="long",
                prompt_tokens=np.arange(249) % tiny_config.vocab_size,
                max_new_tokens=tiny_config.max_context - 249,
            )
        )
        assert fits.request_id == "long/r0"

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


class TestNothingWrittenTwice:
    def test_iteration_saves_from_the_call_and_a_request_has_one_record(
        self, make_engine, tiny_config, monkeypatch
    ):
        """A prompt chunk beside two decode tokens is saved straight from
        the packed call's own per-layer inputs — the iteration builds no
        ``HiddenCapture`` — and a finished request's handle resolves to
        its one response, the object the request wrote up."""
        prompts = _prompts(tiny_config, [5, 7, 9], seed=61)
        engine = make_engine()
        for s in ("s0", "s1"):
            engine.open_session(s)
            engine.execute_iteration([(s, prompts[s])])
        engine.open_session("s2")
        built = []
        real_init = HiddenCapture.__init__

        def counting_init(capture, *args, **kwargs):
            built.append(capture)
            real_init(capture, *args, **kwargs)

        monkeypatch.setattr(HiddenCapture, "__init__", counting_init)
        engine.execute_iteration([("s2", prompts["s2"])], {"s0": 1, "s1": 2})
        assert built == []
        monkeypatch.undo()
        assert {s: engine.hcache.saved_tokens(s) for s in prompts} == {
            "s0": 6, "s1": 8, "s2": 9
        }

        frontend = ServingFrontend(make_engine(), MemoryBudget(capacity_tokens=4096))
        handle = frontend.submit(
            ServingRequest(session_id="s", prompt_tokens=prompts["s0"], max_new_tokens=3)
        )
        frontend.run_until_idle(max_steps=50)
        assert handle.result() is handle.request.response is handle.result()

    def test_every_handle_resolves_to_its_own_response(self, make_engine, tiny_config):
        """Several sessions, one of them with a queued second round: each
        handle's response is its own request's, and no two share one."""
        prompts = _prompts(tiny_config, [4, 6, 3], seed=62)
        frontend = ServingFrontend(make_engine(), MemoryBudget(capacity_tokens=4096))
        handles = [
            frontend.submit(
                ServingRequest(session_id=sid, prompt_tokens=prompt, max_new_tokens=2)
            )
            for sid, prompt in prompts.items()
        ]
        handles.append(
            frontend.submit(
                ServingRequest(session_id="s0", prompt_tokens=np.array([1, 2]), max_new_tokens=2)
            )
        )
        frontend.run_until_idle(max_steps=100)
        assert len({id(handle.result()) for handle in handles}) == len(handles)
        for handle in handles:
            response = handle.result()
            assert response.request_id == handle.request_id
            assert response.tokens == handle.tokens()


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
                frontend._session_tail,
                frontend.batcher.queue,
                frontend.batcher.running,
            )
            assert not any(containers)
        assert len(first.result().tokens) == len(first.tokens()) == 1

    def test_a_finished_response_dies_with_its_handle(self, make_engine, tiny_config):
        """The front end keeps no finished response: once the caller drops
        the handle, the response is garbage."""
        frontend = ServingFrontend(make_engine(), MemoryBudget(capacity_tokens=4096))
        handle = frontend.submit(
            ServingRequest(
                session_id="s", prompt_tokens=np.array([1, 2]) % tiny_config.vocab_size,
                max_new_tokens=2,
            )
        )
        frontend.run_until_idle(max_steps=10)
        response = weakref.ref(handle.result())
        del handle
        gc.collect()
        assert response() is None
