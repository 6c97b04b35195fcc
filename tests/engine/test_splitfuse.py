"""Tests for SplitFuse iteration planning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.request import Phase, Request, RequestSpec
from repro.engine.splitfuse import SplitFuseScheduler
from repro.errors import ConfigError


def decoding_request(rid: str) -> Request:
    r = Request(
        spec=RequestSpec(
            request_id=rid, session_id=rid, arrival_time=0.0,
            history_tokens=0, input_tokens=1, output_tokens=10,
        )
    )
    r.phase = Phase.DECODING
    return r


def prefilling_request(rid: str, remaining: int) -> Request:
    r = Request(
        spec=RequestSpec(
            request_id=rid, session_id=rid, arrival_time=0.0,
            history_tokens=0, input_tokens=remaining, output_tokens=10,
        )
    )
    r.phase = Phase.PREFILLING
    return r


def prefill_tokens(plan) -> int:
    return sum(tokens for _, tokens in plan.prefill_chunks)


class TestPlanning:
    def test_decodes_always_scheduled(self):
        scheduler = SplitFuseScheduler(budget_tokens=4)
        decodes = [decoding_request(f"d{i}") for i in range(10)]
        plan = scheduler.plan(decodes, [])
        assert len(plan.decode_requests) == 10

    def test_prefill_chunked_to_budget(self):
        scheduler = SplitFuseScheduler(budget_tokens=256)
        plan = scheduler.plan([], [prefilling_request("p", 1000)])
        assert prefill_tokens(plan) == 256

    def test_decode_plus_prefill_shares_budget(self):
        scheduler = SplitFuseScheduler(budget_tokens=256)
        decodes = [decoding_request(f"d{i}") for i in range(56)]
        plan = scheduler.plan(decodes, [prefilling_request("p", 1000)])
        assert prefill_tokens(plan) == 200  # 56 decode tokens + 200 = the budget

    def test_multiple_prefills_fcfs(self):
        scheduler = SplitFuseScheduler(budget_tokens=512)
        a = prefilling_request("a", 450)
        b = prefilling_request("b", 450)
        plan = scheduler.plan([], [a, b])
        chunks = dict((r.spec.request_id, n) for r, n in plan.prefill_chunks)
        assert chunks == {"a": 450, "b": 62}

    def test_small_final_chunk(self):
        scheduler = SplitFuseScheduler(budget_tokens=512)
        plan = scheduler.plan([], [prefilling_request("p", 30)])
        assert prefill_tokens(plan) == 30

    def test_no_work(self):
        scheduler = SplitFuseScheduler()
        plan = scheduler.plan([], [])
        assert not plan.has_work

    def test_decode_overflow_may_exceed_budget(self):
        """Decodes never starve (§2.2): when the decode batch alone
        overflows the budget, every decode still runs and prefills get
        zero tokens this iteration."""
        scheduler = SplitFuseScheduler(budget_tokens=512)
        assert scheduler.budget_tokens == 512
        decodes = [decoding_request(f"d{i}") for i in range(600)]
        plan = scheduler.plan(decodes, [prefilling_request("p", 100)])
        assert len(plan.decode_requests) == 600  # exceeds the 512 budget
        assert plan.prefill_chunks == ()

    def test_decode_exactly_at_budget_starves_prefill(self):
        scheduler = SplitFuseScheduler(budget_tokens=512)
        decodes = [decoding_request(f"d{i}") for i in range(512)]
        plan = scheduler.plan(decodes, [prefilling_request("p", 100)])
        assert len(plan.decode_requests) == 512
        assert plan.prefill_chunks == ()

    def test_budget_rounded_to_tile(self):
        scheduler = SplitFuseScheduler(budget_tokens=500)
        assert scheduler.budget_tokens == 384  # optimal_batch_tokens(500)

    def test_budget_below_a_tile_kept(self):
        assert SplitFuseScheduler(budget_tokens=8).budget_tokens == 8

    def test_budget_sized_prompt_beside_a_decoder_is_one_chunk(self):
        """A 256-row prompt beside one decode is not cut 255 + 1: the
        1-row tail would cost the request a second model call before its
        first token."""
        scheduler = SplitFuseScheduler(budget_tokens=256)
        prompt = prefilling_request("p", 256)
        plan = scheduler.plan([decoding_request("d")], [prompt])
        assert plan.prefill_chunks == ((prompt, 256),)

    def test_second_prompt_finishes_in_what_the_first_leaves(self):
        scheduler = SplitFuseScheduler(budget_tokens=256)
        decodes = [decoding_request(f"d{i}") for i in range(4)]
        a = prefilling_request("a", 200)
        b = prefilling_request("b", 56)
        plan = scheduler.plan(decodes, [a, b])
        assert plan.prefill_chunks == ((a, 200), (b, 56))  # 256 prompt + 4 decode rows

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigError):
            SplitFuseScheduler(budget_tokens=0)

    def test_wrong_phase_rejected(self):
        scheduler = SplitFuseScheduler()
        queued = prefilling_request("x", 10)
        queued.phase = Phase.QUEUED
        with pytest.raises(ConfigError):
            scheduler.plan([], [queued])
        with pytest.raises(ConfigError):
            scheduler.plan([queued], [])


def greedy_plan(budget, remainders):
    """The plan with no decodes, where the whole-remainder rule changes
    nothing: ``min(remainder, what is left)`` per prompt."""
    left = budget
    takes = []
    for need in remainders:
        if left <= 0:
            break
        takes.append(min(need, left))
        left -= takes[-1]
    return takes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    budget=st.integers(1, 600),  # rounded to the tile from 128 up
    n_decoding=st.integers(0, 64),
    remainders=st.lists(st.integers(1, 1000), min_size=1, max_size=4),
)
def test_plan_invariants(budget, n_decoding, remainders):
    scheduler = SplitFuseScheduler(budget_tokens=budget)
    budget = scheduler.budget_tokens
    decodes = [decoding_request(f"d{i}") for i in range(n_decoding)]
    prompts = [prefilling_request(f"p{i}", n) for i, n in enumerate(remainders)]
    plan = scheduler.plan(decodes, prompts)

    assert plan.decode_requests == tuple(decodes)
    assert prefill_tokens(plan) <= budget
    # Decodes that fill the budget leave prompts nothing; otherwise the
    # first prompt always makes progress.
    assert bool(plan.prefill_chunks) == (n_decoding < budget)
    # FCFS: chunks are a prefix of the prompt list.
    assert [r for r, _ in plan.prefill_chunks] == prompts[: len(plan.prefill_chunks)]
    for request, take in plan.prefill_chunks:
        left = request.prefill_remaining - take
        assert take >= 1
        assert not 1 <= left <= n_decoding
    takes = [take for _, take in plan.prefill_chunks]
    if n_decoding == 0:
        assert takes == greedy_plan(budget, remainders)
