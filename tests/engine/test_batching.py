"""Tests for continuous batching and memory admission (§2.2, §2.4)."""

from __future__ import annotations

import pytest

from repro.engine.batching import ContinuousBatcher, MemoryBudget
from repro.engine.request import Phase, Request, RequestSpec
from repro.errors import ConfigError
from repro.simulator.hardware import platform_preset


def make_request(rid: str, total: int = 100, depends_on: str | None = None) -> Request:
    return Request(
        spec=RequestSpec(
            request_id=rid,
            session_id=f"sess-{rid}",
            arrival_time=0.0,
            history_tokens=total - 20,
            input_tokens=10,
            output_tokens=10,
            depends_on=depends_on,
        )
    )


class TestMemoryBudget:
    def test_7b_capacity_matches_paper(self, seven_b):
        """§2.4: an A100-40G keeps ~48K tokens of Llama2-7B KV."""
        budget = MemoryBudget.for_platform(seven_b, platform_preset("a100-dram"))
        assert 40_000 < budget.capacity_tokens < 60_000

    def test_13b_capacity_matches_paper(self, thirteen_b):
        """§2.4: ~17K tokens for Llama2-13B."""
        budget = MemoryBudget.for_platform(thirteen_b, platform_preset("a100-dram"))
        assert 13_000 < budget.capacity_tokens < 22_000

    def test_13b_fits_one_long_context(self, thirteen_b):
        """§2.4: 'only 1-3 extended contexts'."""
        budget = MemoryBudget.for_platform(thirteen_b, platform_preset("a100-dram"))
        assert 1 <= budget.capacity_tokens // 16384 <= 3

    def test_model_too_big_rejected(self, opt_30b):
        with pytest.raises(ConfigError):
            MemoryBudget.for_platform(opt_30b, platform_preset("a100-dram"))

    def test_30b_fits_on_four_gpus(self, opt_30b):
        budget = MemoryBudget.for_platform(opt_30b, platform_preset("a100x4-dram"))
        assert budget.capacity_tokens > 30_000


class TestAdmission:
    def test_fcfs_admission(self):
        batcher = ContinuousBatcher(MemoryBudget(250))
        for rid in ("a", "b", "c"):
            batcher.enqueue(make_request(rid))
        admitted = batcher.admit(now=0.0)
        assert [r.spec.request_id for r in admitted] == ["a", "b"]
        assert len(batcher.queue) == 1

    def test_memory_gate(self):
        batcher = ContinuousBatcher(MemoryBudget(150))
        batcher.enqueue(make_request("a"))
        batcher.enqueue(make_request("b"))
        assert len(batcher.admit(now=0.0)) == 1
        assert batcher.free_tokens == 50

    def test_release_frees_memory(self):
        batcher = ContinuousBatcher(MemoryBudget(100))
        batcher.enqueue(make_request("a"))
        (request,) = batcher.admit(now=0.0)
        request.phase = Phase.DECODING
        request.mark_finished(1.0)
        batcher.release(request)
        assert batcher.free_tokens == 100
        assert batcher.idle

    def test_release_unknown_rejected(self):
        batcher = ContinuousBatcher(MemoryBudget(100))
        with pytest.raises(ConfigError):
            batcher.release(make_request("ghost"))

    def test_dependency_blocks_round(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        batcher.enqueue(make_request("round2", depends_on="round1"))
        assert batcher.admit(now=0.0, finished_sessions=set()) == []
        admitted = batcher.admit(now=0.0, finished_sessions={"round1"})
        assert len(admitted) == 1

    def test_dependency_does_not_starve_others(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        batcher.enqueue(make_request("blocked", depends_on="nope"))
        batcher.enqueue(make_request("free"))
        admitted = batcher.admit(now=0.0, finished_sessions=set())
        assert [r.spec.request_id for r in admitted] == ["free"]
        assert len(batcher.queue) == 1

    def test_max_running_cap(self):
        batcher = ContinuousBatcher(MemoryBudget(10_000), max_running=2)
        for rid in ("a", "b", "c"):
            batcher.enqueue(make_request(rid))
        assert len(batcher.admit(now=0.0)) == 2

    def test_admitted_at_stamped(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        batcher.enqueue(make_request("a"))
        (request,) = batcher.admit(now=7.5)
        assert request.admitted_at == 7.5

    def test_phase_queries(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        batcher.enqueue(make_request("a"))
        (request,) = batcher.admit(now=0.0)
        request.phase = Phase.PREFILLING
        assert batcher.prefilling() == [request]
        assert batcher.decoding() == []
        assert batcher.restoring() == []

    def test_enqueue_non_queued_rejected(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        request = make_request("a")
        request.phase = Phase.DECODING
        with pytest.raises(ConfigError):
            batcher.enqueue(request)

    def test_reserved_tokens_accounting(self):
        batcher = ContinuousBatcher(MemoryBudget(1000))
        batcher.enqueue(make_request("a", total=100))
        batcher.enqueue(make_request("b", total=200))
        batcher.admit(now=0.0)
        assert batcher.reserved_tokens == 300
