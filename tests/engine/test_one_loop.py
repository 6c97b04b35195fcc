"""One serving loop, two engines: the decisions must not depend on which.

``ServingFrontend`` is the only admit → restore → plan → execute → retire
loop; the numeric engine and the cost-model engine sit behind the same
seam.  With restores that settle in the step that starts them (no
executor on the numeric side, the ``"ideal"`` method on the cost-model
side) the two must make *identical* scheduling decisions for the same
request script — which is what lets the paper figures stand for the code
that ships.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.core.restoration import method_timing
from repro.engine import (
    MemoryBudget,
    NumericServingEngine,
    ServingFrontend,
    ServingRequest,
    SplitFuseScheduler,
)
from repro.engine.serving import CostModelEngine
from repro.storage.manager import StorageManager

DECISIONS = (
    "admitted",
    "restores_started",
    "restores_completed",
    "prefill_chunks",
    "decode_sessions",
    "finished",
)


@pytest.fixture
def engines(tiny_model, tiny_config, default_platform):
    """``build(budget_tokens)`` -> the two engines, fresh."""

    def build(budget_tokens):
        storage = StorageManager(build_storage_array(default_platform))
        numeric = NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))
        cost = CostModelEngine(
            tiny_config,
            default_platform,
            partial(method_timing, "ideal", tiny_config, default_platform),
            budget_tokens=budget_tokens,
        )
        return numeric, cost

    return build


def decisions(engine, clock, waves, *, budget_tokens, max_running, vocab_size):
    """Serve ``waves`` (each submitted at once, then run to idle; sessions
    are evicted in between) and return every step's decision fields."""
    frontend = ServingFrontend(
        engine,
        MemoryBudget(capacity_tokens=4096),
        scheduler=SplitFuseScheduler(budget_tokens),
        max_running=max_running,
        evict_on_finish=True,
        clock=clock,
    )
    rng = np.random.default_rng(0)
    trace = []
    for wave in waves:
        for session, prompt_len, max_new, slo in wave:
            frontend.submit(
                ServingRequest(
                    session_id=f"s{session}",
                    prompt_tokens=rng.integers(0, vocab_size, size=prompt_len),
                    max_new_tokens=max_new,
                    arrival_time=0.0,
                    slo_ttft_s=slo,
                )
            )
        for stats in frontend.run_until_idle(max_steps=2000):
            trace.append(tuple(getattr(stats, name) for name in DECISIONS))
    return trace


def both(engines, waves, budget_tokens, max_running, vocab_size):
    scheduler_budget = SplitFuseScheduler(budget_tokens).budget_tokens
    numeric, cost = engines(scheduler_budget)
    common = dict(
        budget_tokens=budget_tokens, max_running=max_running, vocab_size=vocab_size
    )
    return (
        decisions(numeric, lambda: 0.0, waves, **common),
        decisions(cost, cost.now, waves, **common),
    )


def test_numeric_and_cost_model_engines_make_the_same_decisions(engines, tiny_config):
    waves = [
        # Fresh sessions, a cohort larger than max_running, one prompt
        # longer than the SplitFuse budget, one SLO-carrying request that
        # must prefill ahead of the earlier arrivals.
        [(0, 5, 3, None), (1, 21, 2, None), (2, 6, 1, 0.5), (3, 4, 4, None)],
        # Second rounds after eviction (restores), two chained rounds of
        # one session (the second finds it resident), and a fresh one.
        [(0, 3, 2, None), (1, 9, 3, None), (1, 2, 2, None), (4, 7, 2, None)],
    ]
    numeric, cost = both(
        engines, waves, budget_tokens=8, max_running=3, vocab_size=tiny_config.vocab_size
    )
    assert numeric == cost
    flat = {name: [step[i] for step in numeric] for i, name in enumerate(DECISIONS)}
    assert flat["admitted"][0] == ("s0/r0", "s1/r0", "s2/r0")  # max_running
    assert flat["prefill_chunks"][0] == (("s2/r0", 6), ("s0/r0", 2))  # EDF, budget
    started = [rid for ids in flat["restores_started"] for rid in ids]
    assert started == ["s0/r1", "s1/r1"]  # s1/r2 chains onto a resident session
    assert [rid for ids in flat["restores_completed"] for rid in ids] == started
    assert sorted(rid for ids in flat["finished"] for rid in ids) == sorted(
        ["s0/r0", "s1/r0", "s2/r0", "s3/r0", "s0/r1", "s1/r1", "s1/r2", "s4/r0"]
    )


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    waves=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # session
                st.integers(1, 20),  # prompt length
                st.integers(1, 4),  # output length
                st.sampled_from([None, 0.25, 1.0]),  # TTFT SLO
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    ),
    budget_tokens=st.integers(2, 16),
    max_running=st.integers(1, 4),
)
def test_any_script_yields_the_same_decisions(
    engines, tiny_config, waves, budget_tokens, max_running
):
    numeric, cost = both(engines, waves, budget_tokens, max_running, tiny_config.vocab_size)
    assert numeric == cost


def serve_beside_a_decoder(engine, clock, prompts, outputs):
    """Session ``a`` prefills and starts decoding; then ``b`` arrives with
    a prompt the size of the budget.  Returns every step's stats and the
    two handles."""
    frontend = ServingFrontend(
        engine,
        MemoryBudget(capacity_tokens=4096),
        scheduler=SplitFuseScheduler(8),
        evict_on_finish=True,
        clock=clock,
    )

    def submit(sid):
        return frontend.submit(
            ServingRequest(
                session_id=sid,
                prompt_tokens=prompts[sid],
                max_new_tokens=outputs[sid],
                arrival_time=0.0,
            )
        )

    handles = {"a": submit("a")}
    steps = [frontend.step()]
    handles["b"] = submit("b")
    steps.append(frontend.step())
    first_tokens_b = len(handles["b"].tokens())
    steps += frontend.run_until_idle(max_steps=100)
    return steps, handles, first_tokens_b


def test_budget_sized_prompt_beside_a_decoder_is_served_in_one_call(
    engines, tiny_model, tiny_config, monkeypatch
):
    """An 8-token prompt planned next to one decode under an 8-token
    budget is one 8-row chunk, not 7 + 1: its first token comes out of
    the iteration that carries that chunk, in the same model call as the
    decoder's token.  Both engines plan it the same way."""
    rng = np.random.default_rng(33)
    prompts = {
        "a": rng.integers(0, tiny_config.vocab_size, size=3),
        "b": rng.integers(0, tiny_config.vocab_size, size=8),
    }
    outputs = {"a": 6, "b": 3}
    numeric, cost = engines(8)
    fused_calls = []
    forward_fused = tiny_model.forward_fused

    def counted(*args, **kwargs):
        fused_calls.append(args)
        return forward_fused(*args, **kwargs)

    monkeypatch.setitem(vars(tiny_model), "forward_fused", counted)
    steps, handles, first_tokens_b = serve_beside_a_decoder(
        numeric, lambda: 0.0, prompts, outputs
    )
    monkeypatch.undo()

    assert steps[1].prefill_chunks == (("b/r0", 8),)
    assert steps[1].decode_sessions == ("a",)
    assert first_tokens_b == 1
    # a's prompt, then a's decode fused with b's whole prompt; every later
    # iteration is decode-only.
    assert len(fused_calls) == 2
    assert all(s.model_calls <= 1 for s in steps)

    serial, _ = engines(8)
    for sid in prompts:
        serial.open_session(sid)
    for sid, handle in handles.items():
        assert handle.result().tokens == tuple(
            serial.chat_round(sid, prompts[sid], outputs[sid])
        )

    cost_steps, _, cost_first_tokens_b = serve_beside_a_decoder(
        cost, cost.now, prompts, outputs
    )
    assert [s.prefill_chunks for s in cost_steps] == [s.prefill_chunks for s in steps]
    assert cost_first_tokens_b == 1
