"""Tests for the serving simulation (Fig. 9 machinery): the shipped
``ServingFrontend`` loop over the cost-model engine."""

from __future__ import annotations

import pytest

from repro.baselines import default_methods
from repro.baselines.base import RestorationMethod
from repro.core.restoration import RestorationTiming
from repro.engine.request import RequestSpec
from repro.engine.serving import (
    CostModelEngine,
    EngineConfig,
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
            seven_b, default_platform, default_methods(seven_b, default_platform)["hcache"]
        )
        report = sim.run([single_spec()])
        assert report.n_requests == 1
        assert report.mean_ttft > 0
        assert report.mean_tbt > 0

    def test_ideal_ttft_is_prefill_only(self, seven_b, default_platform):
        methods = default_methods(seven_b, default_platform)
        ideal = ServingSimulator(seven_b, default_platform, methods["ideal"]).run(
            [single_spec()]
        )
        hcache = ServingSimulator(seven_b, default_platform, methods["hcache"]).run(
            [single_spec()]
        )
        assert ideal.mean_ttft < hcache.mean_ttft

    def test_no_history_all_methods_equal(self, seven_b, default_platform):
        spec = single_spec(history=0)
        reports = simulate_methods(
            seven_b, default_platform, default_methods(seven_b, default_platform), [spec]
        )
        ttfts = [r.mean_ttft for r in reports.values()]
        assert max(ttfts) - min(ttfts) < 2e-3

    def test_oversized_request_rejected(self, thirteen_b, default_platform):
        sim = ServingSimulator(
            thirteen_b,
            default_platform,
            default_methods(thirteen_b, default_platform)["ideal"],
        )
        with pytest.raises(ConfigError):
            sim.run([single_spec(history=30_000)])

    def test_empty_workload_rejected(self, seven_b, default_platform):
        sim = ServingSimulator(
            seven_b, default_platform, default_methods(seven_b, default_platform)["ideal"]
        )
        with pytest.raises(ConfigError):
            sim.run([])


class TestMethodOrdering:
    def test_paper_ttft_ordering(self, seven_b, default_platform, small_workload):
        """Fig. 9a: recompute > KV offload > HCache > ideal."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            default_methods(seven_b, default_platform),
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
            default_methods(seven_b, default_platform),
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
            default_methods(seven_b, default_platform),
            small_workload,
        )
        overhead = reports["hcache"].mean_tbt / reports["ideal"].mean_tbt - 1.0
        assert overhead < 0.06

    def test_conservation(self, seven_b, default_platform, small_workload):
        """Every admitted request finishes exactly once."""
        reports = simulate_methods(
            seven_b,
            default_platform,
            default_methods(seven_b, default_platform),
            small_workload,
        )
        for report in reports.values():
            assert report.n_requests == len(small_workload)


class TestLoadBehaviour:
    def test_ttft_grows_with_load(self, seven_b, default_platform):
        method = default_methods(seven_b, default_platform)["kv-offload"]
        convs = ShareGPTGenerator(seed=9, mean_rounds=4).sample_many(10)
        slow = ServingSimulator(seven_b, default_platform, method).run(
            build_workload(convs, rate_per_second=0.05, seed=1)
        )
        fast = ServingSimulator(seven_b, default_platform, method).run(
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
            seven_b, default_platform, default_methods(seven_b, default_platform)["hcache"]
        )
        sim.run(specs)
        records = {r.request_id: r for r in sim.metrics.records}
        r0_finish = records["s/r0"].finished_at
        r1_first_token = records["s/r1"].arrival_time + records["s/r1"].ttft
        assert r1_first_token >= r0_finish

    def test_horizon_guard(self, seven_b, default_platform):
        config = EngineConfig(max_sim_seconds=1e-6)
        sim = ServingSimulator(
            seven_b,
            default_platform,
            default_methods(seven_b, default_platform)["recompute"],
            config,
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


class _SplitTimingMethod(RestorationMethod):
    """Stub: big histories pay IO; small ones are zero-IO, compute-only.

    Models a DRAM-warm (or pure-recompute) restoration whose state needs
    no transfer — the case where compute must not serialize behind other
    requests' IO path.
    """

    name = "split-timing"

    def __init__(self, config, platform, io_threshold=100):
        super().__init__(config, platform)
        self.io_threshold = io_threshold

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        if n_tokens >= self.io_threshold:
            return RestorationTiming(
                n_tokens=n_tokens, makespan=5.0, io_busy=5.0,
                compute_busy=0.05, io_bubble=0.0, compute_bubble=0.0,
            )
        return RestorationTiming(
            n_tokens=n_tokens, makespan=0.01, io_busy=0.0,
            compute_busy=0.01, io_bubble=0.0, compute_bubble=0.0,
        )


class TestZeroIORestoration:
    """Regression: zero-IO restorations must start immediately and never
    gate on (or advance) the shared IO path."""

    def test_zero_io_restore_not_gated_by_other_requests_io(
        self, seven_b, default_platform
    ):
        method = _SplitTimingMethod(seven_b, default_platform)
        sim = ServingSimulator(seven_b, default_platform, method)
        specs = [
            single_spec(history=10_000, inp=32, out=4, t=0.0, rid="io-heavy"),
            single_spec(history=50, inp=32, out=4, t=0.0, rid="zero-io"),
        ]
        report = sim.run(specs)
        assert report.n_requests == 2
        records = {r.request_id: r for r in sim.metrics.records}
        # The zero-IO restore's compute may begin at admission; its first
        # token must not wait for the 5s IO job of the other request.
        assert records["zero-io"].ttft < 1.0
        assert records["io-heavy"].ttft >= 5.0

    def test_zero_io_restore_does_not_advance_io_path(self, seven_b, default_platform):
        method = _SplitTimingMethod(seven_b, default_platform)
        sim = ServingSimulator(seven_b, default_platform, method)
        sim.run([single_spec(history=50, inp=32, out=4, rid="zero-io")])
        assert sim.engine._io_free_at == [0.0]

    def test_invalid_io_parallelism_rejected(self, seven_b, default_platform):
        method = _SplitTimingMethod(seven_b, default_platform)
        with pytest.raises(ConfigError):
            ServingSimulator(
                seven_b,
                default_platform,
                method,
                EngineConfig(restore_io_parallelism=0),
            )

    def test_zero_io_trace_finishes_without_micro_stepping(
        self, seven_b, default_platform
    ):
        """Pre-fix, a zero-IO restore behind a busy IO path spun the idle
        branch in 1e-6 steps until the phantom IO cleared; a tight horizon
        plus a wall-clock budget would both trip on that."""
        method = _SplitTimingMethod(seven_b, default_platform)
        sim = ServingSimulator(seven_b, default_platform, method)
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


class TestRestoreIOParallelism:
    """The timing-model counterpart of the shared restore IO worker pool:
    ``restore_io_parallelism`` channels let an admitted burst of restores
    transfer concurrently instead of serializing on one IO path."""

    def _burst(self, seven_b, default_platform, channels, n=2):
        """A cost-model engine with ``n`` 5s-IO restores started at t=0."""
        method = _SplitTimingMethod(seven_b, default_platform, io_threshold=1)
        engine = CostModelEngine(
            seven_b, default_platform, method, budget_tokens=512, io_channels=channels
        )
        sessions = [f"s{i}" for i in range(n)]
        for session_id in sessions:
            engine.open_session(session_id, history_tokens=10_000)
            assert engine.begin_round(session_id, 10_036)
        engine.start_restores(dict.fromkeys(sessions, 10_036), background=True)
        return engine

    def _io_starts(self, engine):
        return sorted(job.io_start for job in engine._restoring.values())

    def test_serial_channel_staggers_restore_starts(self, seven_b, default_platform):
        engine = self._burst(seven_b, default_platform, channels=1)
        # Second restore's 5s IO job waits for the first to release the path.
        assert self._io_starts(engine) == pytest.approx([0.0, 5.0])
        assert engine._io_free_at == pytest.approx([10.0])

    def test_two_channels_start_both_restores_at_admission(
        self, seven_b, default_platform
    ):
        engine = self._burst(seven_b, default_platform, channels=2)
        assert self._io_starts(engine) == pytest.approx([0.0, 0.0])

    def test_extra_restores_still_queue_behind_full_pool(
        self, seven_b, default_platform
    ):
        engine = self._burst(seven_b, default_platform, channels=2, n=3)
        assert self._io_starts(engine) == pytest.approx([0.0, 0.0, 5.0])

    def test_waiting_projects_first_then_jumps_to_the_next_io_completion(
        self, seven_b, default_platform
    ):
        engine = self._burst(seven_b, default_platform, channels=1)
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

    def _records(self, seven_b, default_platform, parallelism, n):
        method = _SplitTimingMethod(seven_b, default_platform, io_threshold=1)
        sim = ServingSimulator(
            seven_b,
            default_platform,
            method,
            EngineConfig(restore_io_parallelism=parallelism),
        )
        sim.run(
            [
                single_spec(history=10_000, inp=32, out=4, t=0.0, rid=f"r{i}")
                for i in range(n)
            ]
        )
        return {r.request_id: r for r in sim.metrics.records}

    def test_parallel_channels_improve_ttft_under_burst(
        self, seven_b, default_platform
    ):
        serial = self._records(seven_b, default_platform, parallelism=1, n=3)
        parallel = self._records(seven_b, default_platform, parallelism=3, n=3)
        mean_serial = sum(r.ttft for r in serial.values()) / 3
        mean_parallel = sum(r.ttft for r in parallel.values()) / 3
        assert mean_parallel < mean_serial
        # restore_seconds spans start-to-settle, so it carries the wait
        # for the single channel: 5s, 10s, 15s.
        assert sorted(r.restore_seconds for r in serial.values()) == pytest.approx(
            [5.0, 10.0, 15.0], abs=0.2
        )
