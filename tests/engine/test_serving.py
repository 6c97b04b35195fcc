"""Tests for the serving simulation (Fig. 9 machinery): the shipped
``ServingFrontend`` loop over the cost-model engine."""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.restoration import DEFAULT_METHODS, RestorationTiming, method_timing
from repro.engine import serving
from repro.engine.request import RequestSpec
from repro.engine.serving import (
    CostModelEngine,
    ServingSimulator,
    concurrent_context_estimate,
    max_context_tokens,
    simulate_methods,
)
from repro.errors import ConfigError, SimulationError
from repro.simulator.hardware import platform_preset
from repro.traces import ShareGPTGenerator, build_workload


def single_spec(history=1000, inp=50, out=20, t=0.0, rid="r0"):
    return RequestSpec(
        request_id=rid,
        session_id=f"s-{rid}",
        arrival_time=t,
        history_tokens=history,
        input_tokens=inp,
        output_tokens=out,
    )


@pytest.fixture(scope="module")
def small_workload():
    convs = ShareGPTGenerator(seed=3, mean_rounds=4).sample_many(8)
    return build_workload(convs, rate_per_second=0.5, seed=4)


class TestSingleRequest:
    def test_request_completes(self, seven_b, default_platform):
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "hcache", seven_b, default_platform)
        )
        report = sim.run([single_spec()])
        assert report.n_requests == 1
        assert report.mean_ttft > 0
        assert report.mean_tbt > 0

    def test_ideal_ttft_is_prefill_only(self, seven_b, default_platform):
        ideal, hcache = (
            ServingSimulator(
                seven_b, default_platform, partial(method_timing, name, seven_b, default_platform)
            ).run([single_spec()])
            for name in ("ideal", "hcache")
        )
        assert ideal.mean_ttft < hcache.mean_ttft

    def test_no_history_all_methods_equal(self, seven_b, default_platform):
        spec = single_spec(history=0)
        reports = simulate_methods(
            seven_b, default_platform, DEFAULT_METHODS, [spec]
        )
        ttfts = [r.mean_ttft for r in reports.values()]
        assert max(ttfts) - min(ttfts) < 2e-3

    def test_oversized_request_rejected(self, thirteen_b, default_platform):
        sim = ServingSimulator(
            thirteen_b,
            default_platform,
            partial(method_timing, "ideal", thirteen_b, default_platform),
        )
        with pytest.raises(ConfigError):
            sim.run([single_spec(history=30_000)])

    def test_empty_workload_rejected(self, seven_b, default_platform):
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "ideal", seven_b, default_platform)
        )
        with pytest.raises(ConfigError):
            sim.run([])


class TestMethodOrdering:
    def test_paper_ttft_ordering(self, seven_b, default_platform, small_workload):
        """Fig. 9a: recompute > KV offload > HCache > ideal."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            DEFAULT_METHODS,
            small_workload,
        )
        assert (
            reports["recompute"].mean_ttft
            > reports["kv-offload"].mean_ttft
            > reports["hcache"].mean_ttft
            > reports["ideal"].mean_ttft
        )

    def test_hcache_ttft_speedup_band(self, seven_b, default_platform, small_workload):
        """§6.1.1: 1.27-1.90x vs KV offload, 2.21-3.57x vs recompute
        (checked loosely — queueing widens the spread at load)."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            DEFAULT_METHODS,
            small_workload,
        )
        vs_offload = reports["kv-offload"].mean_ttft / reports["hcache"].mean_ttft
        vs_recompute = reports["recompute"].mean_ttft / reports["hcache"].mean_ttft
        assert 1.1 < vs_offload < 2.5
        assert 2.0 < vs_recompute < 8.0

    def test_tbt_near_ideal_for_hcache(self, seven_b, default_platform, small_workload):
        """Fig. 9d-f: HCache's TBT is within ~4% of ideal."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            DEFAULT_METHODS,
            small_workload,
        )
        overhead = reports["hcache"].mean_tbt / reports["ideal"].mean_tbt - 1.0
        assert overhead < 0.06

    def test_conservation(self, seven_b, default_platform, small_workload):
        """Every admitted request finishes exactly once."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            DEFAULT_METHODS,
            small_workload,
        )
        for report in reports.values():
            assert report.n_requests == len(small_workload)


class TestLoadBehaviour:
    def test_ttft_grows_with_load(self, seven_b, default_platform):
        restore_timing = partial(method_timing, "kv-offload", seven_b, default_platform)
        convs = ShareGPTGenerator(seed=9, mean_rounds=4).sample_many(10)
        slow = ServingSimulator(seven_b, default_platform, restore_timing).run(
            build_workload(convs, rate_per_second=0.05, seed=1)
        )
        fast = ServingSimulator(seven_b, default_platform, restore_timing).run(
            build_workload(convs, rate_per_second=2.0, seed=1)
        )
        assert fast.mean_ttft >= slow.mean_ttft * 0.95

    def test_round_ordering_respected(self, seven_b, default_platform):
        """Round k+1 never gets its first token before round k finishes."""
        specs = [
            RequestSpec("s/r0", "s", 0.0, 0, 64, 16),
            RequestSpec("s/r1", "s", 0.1, 80, 64, 16, depends_on="s/r0"),
        ]
        sim = ServingSimulator(
            seven_b, default_platform, partial(method_timing, "hcache", seven_b, default_platform)
        )
        sim.run(specs)
        records = {r.request_id: r for r in sim.responses}
        r0_finish = records["s/r0"].finished_at
        r1_first_token = records["s/r1"].arrival_time + records["s/r1"].ttft
        assert r1_first_token >= r0_finish

    def test_horizon_guard(self, seven_b, default_platform, monkeypatch):
        monkeypatch.setattr(serving, "MAX_SIM_SECONDS", 1e-6)
        sim = ServingSimulator(
            seven_b,
            default_platform,
            partial(method_timing, "recompute", seven_b, default_platform),
        )
        with pytest.raises(SimulationError):
            sim.run([single_spec(t=1.0)])


class TestCapacityHelpers:
    def test_max_context_positive(self, seven_b):
        assert max_context_tokens(seven_b, platform_preset("a100-dram")) > 0

    def test_concurrent_estimate_matches_paper(self, seven_b, thirteen_b):
        """§2.4: 7-20 conversations (2.5K each) or 1-3 long contexts."""
        plat = platform_preset("a100-dram")
        convs = concurrent_context_estimate(seven_b, plat, 2500)
        assert 7 <= convs <= 25
        long_ctx = concurrent_context_estimate(thirteen_b, plat, 16384)
        assert 1 <= long_ctx <= 3

    def test_zero_context_rejected(self, seven_b):
        with pytest.raises(ConfigError):
            concurrent_context_estimate(seven_b, platform_preset("a100-dram"), 0)


def split_timing(io_threshold=100):
    """Stub restoration: big histories pay IO; small ones are zero-IO,
    compute-only.

    Models a pure-recompute restoration whose state needs
    no transfer — the case where compute must not serialize behind other
    requests' IO path.
    """

    def timing(n_tokens: int) -> RestorationTiming:
        if n_tokens >= io_threshold:
            return RestorationTiming(
                n_tokens=n_tokens, makespan=5.0, io_busy=5.0,
                compute_busy=0.05, io_bubble=0.0, compute_bubble=0.0,
            )
        return RestorationTiming(
            n_tokens=n_tokens, makespan=0.01, io_busy=0.0,
            compute_busy=0.01, io_bubble=0.0, compute_bubble=0.0,
        )

    return timing


class TestZeroIORestoration:
    """Regression: zero-IO restorations must start immediately and never
    gate on (or advance) the shared IO path."""

    def test_zero_io_restore_not_gated_by_other_requests_io(
        self, seven_b, default_platform
    ):
        restore_timing = split_timing()
        sim = ServingSimulator(seven_b, default_platform, restore_timing)
        specs = [
            single_spec(history=10_000, inp=32, out=4, t=0.0, rid="io-heavy"),
            single_spec(history=50, inp=32, out=4, t=0.0, rid="zero-io"),
        ]
        report = sim.run(specs)
        assert report.n_requests == 2
        records = {r.request_id: r for r in sim.responses}
        # The zero-IO restore's compute may begin at admission; its first
        # token must not wait for the 5s IO job of the other request.
        assert records["zero-io"].ttft < 1.0
        assert records["io-heavy"].ttft >= 5.0

    def test_zero_io_restore_does_not_advance_io_path(self, seven_b, default_platform):
        restore_timing = split_timing()
        sim = ServingSimulator(seven_b, default_platform, restore_timing)
        sim.run([single_spec(history=50, inp=32, out=4, rid="zero-io")])
        assert sim.engine._io_free_at == 0.0

    def test_zero_io_trace_finishes_without_micro_stepping(
        self, seven_b, default_platform
    ):
        """Pre-fix, a zero-IO restore behind a busy IO path spun the idle
        branch in 1e-6 steps until the phantom IO cleared; a tight horizon
        plus a wall-clock budget would both trip on that."""
        restore_timing = split_timing()
        sim = ServingSimulator(seven_b, default_platform, restore_timing)
        specs = [
            single_spec(history=10_000, inp=32, out=64, t=0.0, rid="io-heavy"),
            single_spec(history=50, inp=32, out=4, t=0.0, rid="zero-io"),
        ]
        import time as _time

        t0 = _time.perf_counter()
        report = sim.run(specs)
        elapsed = _time.perf_counter() - t0
        assert report.n_requests == 2
        # ~5e6 micro-steps of 1e-6s would take far longer than this.
        assert elapsed < 5.0


class TestSerialRestoreIO:
    """Restoration IO jobs share the one PCIe/storage path: an admitted
    burst of restores transfers one after another, and each start waits
    for the job before it to release the path."""

    def _burst(self, seven_b, default_platform, n=2):
        """A cost-model engine with ``n`` 5s-IO restores started at t=0."""
        restore_timing = split_timing(io_threshold=1)
        engine = CostModelEngine(seven_b, default_platform, restore_timing, budget_tokens=512)
        sessions = [f"s{i}" for i in range(n)]
        for session_id in sessions:
            engine.open_session(session_id, history_tokens=10_000)
            assert engine.begin_round(session_id, 10_036)
        engine.start_restores(dict.fromkeys(sessions, 10_036), background=True)
        return engine

    def _io_starts(self, engine):
        return sorted(job.io_start for job in engine._restoring.values())

    def test_serial_path_staggers_restore_starts(self, seven_b, default_platform):
        engine = self._burst(seven_b, default_platform)
        # Second restore's 5s IO job waits for the first to release the path.
        assert self._io_starts(engine) == pytest.approx([0.0, 5.0])
        assert engine._io_free_at == pytest.approx(10.0)

    def test_third_restore_queues_behind_both(self, seven_b, default_platform):
        engine = self._burst(seven_b, default_platform, n=3)
        assert self._io_starts(engine) == pytest.approx([0.0, 5.0, 10.0])

    def test_waiting_projects_first_then_jumps_to_the_next_io_completion(
        self, seven_b, default_platform
    ):
        engine = self._burst(seven_b, default_platform)
        assert engine.finished_restores() == []
        # Compute pipelines with the IO: the first wait is a restore-only
        # iteration for the job whose IO has begun, not a sleep.
        engine.wait_for_restores()
        assert 0.0 < engine.now() < 1.0
        while engine.now() < 5.0:
            engine.wait_for_restores()
        assert engine.now() == pytest.approx(5.0)
        assert engine.finished_restores() == ["s0"]
        # A wait never sleeps past the driver's next arrival.
        engine.wake_at = 7.0
        while engine._restore_compute(512):
            pass
        engine.wait_for_restores()
        assert engine.now() == pytest.approx(7.0)

    def test_burst_restore_seconds_carry_the_io_wait(self, seven_b, default_platform):
        restore_timing = split_timing(io_threshold=1)
        sim = ServingSimulator(seven_b, default_platform, restore_timing)
        sim.run(
            [
                single_spec(history=10_000, inp=32, out=4, t=0.0, rid=f"r{i}")
                for i in range(3)
            ]
        )
        # restore_seconds spans start-to-settle, so it carries the wait
        # for the one IO path: 5s, 10s, 15s.
        assert sorted(r.restore_seconds for r in sim.responses) == pytest.approx(
            [5.0, 10.0, 15.0], abs=0.2
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_burst_books_io_jobs_back_to_back(self, seven_b, default_platform, n):
        engine = self._burst(seven_b, default_platform, n=n)
        assert self._io_starts(engine) == pytest.approx([5.0 * i for i in range(n)])
        ends = sorted(job.io_done for job in engine._restoring.values())
        assert ends == pytest.approx([5.0 * (i + 1) for i in range(n)])
        assert engine._io_free_at == pytest.approx(5.0 * n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_restore_settles_when_its_io_lands(self, seven_b, default_platform, n):
        engine = self._burst(seven_b, default_platform, n=n)
        settled = {}
        while len(settled) < n:
            engine.wait_for_restores()
            for session_id in engine.finished_restores():
                settled[session_id] = engine.now()
        assert [settled[f"s{i}"] for i in range(n)] == pytest.approx(
            [5.0 * (i + 1) for i in range(n)]
        )

    def test_idle_path_books_the_next_job_at_now(self, seven_b, default_platform):
        engine = self._burst(seven_b, default_platform)
        while engine.now() < 10.0 or engine._restoring:
            engine.wait_for_restores()
            engine.finished_restores()
        engine.wake_at = 20.0
        engine.wait_for_restores()  # nothing pending: jump to the arrival
        assert engine.now() == pytest.approx(20.0)
        engine.evict("s0")
        assert engine.begin_round("s0", 10_036)
        engine.start_restores({"s0": 10_036})
        # The path went idle at 10s; the new job starts now, not then.
        assert self._io_starts(engine) == pytest.approx([20.0])
        assert engine._io_free_at == pytest.approx(25.0)

    def test_zero_io_restore_in_a_burst_neither_waits_nor_delays(
        self, seven_b, default_platform
    ):
        restore_timing = split_timing(io_threshold=100)
        engine = CostModelEngine(seven_b, default_platform, restore_timing, budget_tokens=512)
        histories = {"a": 10_000, "zero": 50, "b": 10_000}
        for session_id, history in histories.items():
            engine.open_session(session_id, history_tokens=history)
            assert engine.begin_round(session_id, history + 36)
        engine.start_restores({sid: h + 36 for sid, h in histories.items()})
        starts = {sid: job.io_start for sid, job in engine._restoring.items()}
        assert starts == pytest.approx({"a": 0.0, "zero": 0.0, "b": 5.0})
        assert engine._io_free_at == pytest.approx(10.0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_restore_seconds_grow_by_one_io_job_per_place_in_line(
        self, seven_b, default_platform, n
    ):
        restore_timing = split_timing(io_threshold=1)
        sim = ServingSimulator(seven_b, default_platform, restore_timing)
        sim.run(
            [
                single_spec(history=10_000, inp=32, out=4, t=0.0, rid=f"r{i}")
                for i in range(n)
            ]
        )
        assert sorted(r.restore_seconds for r in sim.responses) == pytest.approx(
            [5.0 * (i + 1) for i in range(n)], abs=0.2
        )
