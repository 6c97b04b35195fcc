"""Tests for the bubble-free restoration scheduler (§4.1.2)."""

from __future__ import annotations

import pytest

from repro.core.partition import PartitionScheme
from repro.core.profiler import HardwareProfile, profile_platform
from repro.core.scheduler import BubbleFreeScheduler, evaluate_scheme
from repro.errors import SchedulingError
from repro.simulator.hardware import platform_preset


def profile(io_h: float, io_kv: float, c_h: float, c_tok: float, n: int = 1024):
    return HardwareProfile(
        model="synthetic",
        n_tokens=n,
        io_hidden=io_h,
        io_kv=io_kv,
        compute_hidden=c_h,
        compute_token=c_tok,
    )


class TestClosedForm:
    def test_balanced_hardware_pure_hcache(self):
        """When C_H == IO_H no complement is needed."""
        scheduler = BubbleFreeScheduler(32)
        decision = scheduler.schedule(profile(1.0, 2.0, 1.0, 10.0))
        assert decision.scheme.n_hidden >= 31

    def test_compute_bound_uses_kv(self):
        scheduler = BubbleFreeScheduler(32)
        decision = scheduler.schedule(profile(1.0, 2.0, 3.0, 10.0))
        assert decision.scheme.n_kv > 0
        assert decision.scheme.n_recompute == 0

    def test_io_bound_uses_recompute(self):
        scheduler = BubbleFreeScheduler(32)
        decision = scheduler.schedule(profile(4.0, 8.0, 1.0, 6.0))
        assert decision.scheme.n_recompute > 0
        assert decision.scheme.n_kv == 0

    def test_partition_sums_to_layers(self):
        scheduler = BubbleFreeScheduler(40)
        for prof in (
            profile(1.0, 2.0, 3.0, 12.0),
            profile(5.0, 10.0, 1.0, 7.0),
            profile(1.0, 2.0, 1.0, 9.0),
        ):
            scheme = scheduler.schedule(prof).scheme
            assert scheme.n_hidden + scheme.n_other == 40

    def test_closed_form_formula_compute_bound(self):
        """L_H = ceil(N * IO_KV / (IO_KV + C_H - IO_H))."""
        scheduler = BubbleFreeScheduler(32)
        l_h = scheduler.closed_form_l_h(profile(1.0, 2.0, 2.0, 10.0))
        assert l_h == 22  # ceil(32 * 2 / 3)

    def test_closed_form_formula_io_bound(self):
        """L_H = ceil(N * C_tok / (C_tok + IO_H - C_H))."""
        scheduler = BubbleFreeScheduler(32)
        l_h = scheduler.closed_form_l_h(profile(3.0, 6.0, 1.0, 8.0))
        assert l_h == 26  # ceil(32 * 8 / 10)

    def test_invalid_layer_count(self):
        with pytest.raises(SchedulingError):
            BubbleFreeScheduler(0)


class TestOptimality:
    @pytest.mark.parametrize(
        "prof",
        [
            profile(1.0, 2.0, 3.0, 12.0),
            profile(4.0, 8.0, 1.0, 5.0),
            profile(1.0, 2.0, 1.1, 9.0),
            profile(2.0, 4.0, 7.0, 20.0),
            profile(10.0, 20.0, 1.0, 3.0),
        ],
    )
    def test_closed_form_near_exhaustive_optimum(self, prof):
        scheduler = BubbleFreeScheduler(32)
        fast = scheduler.schedule(prof)
        best = scheduler.schedule_by_search(prof)
        assert fast.predicted_makespan <= best.predicted_makespan * 1.05

    def test_scheduled_beats_pure_variants(self):
        """The scheduler's pick is at least as good as all-hidden,
        all-KV, and all-recompute."""
        scheduler = BubbleFreeScheduler(32)
        prof = profile(1.0, 2.0, 3.0, 12.0)
        decision = scheduler.schedule(prof)
        for pure in (
            PartitionScheme.pure_hcache(32),
            PartitionScheme.pure_kv(32),
            PartitionScheme.pure_recompute(32),
        ):
            assert decision.predicted_makespan <= evaluate_scheme(pure, prof) + 1e-12

    def test_compute_bound_cheap_recompute_picks_pure_recompute(self):
        """Pinned: compute-bound platform with C_token < C_H (outside the
        paper's regime — recomputing a layer is cheaper than its
        projection).  The regime complement (KV offload) can never beat
        pure recompute here; the scheduler must consider the
        cross-regime endpoint rather than return a dominated KV mix."""
        scheduler = BubbleFreeScheduler(8)
        prof = profile(1.0, 2.0, 5.0, 1.0)  # compute-bound, c_tok < c_h
        assert prof.compute_bound
        decision = scheduler.schedule(prof)
        assert decision.scheme.n_recompute == 8
        assert decision.scheme.n_hidden == 0
        pure_recompute = PartitionScheme.pure_recompute(8)
        assert decision.predicted_makespan <= evaluate_scheme(pure_recompute, prof) + 1e-12
        # And it matches the exhaustive search, which always knew better.
        best = scheduler.schedule_by_search(prof)
        assert decision.predicted_makespan <= best.predicted_makespan + 1e-12

    def test_io_bound_cheap_kv_picks_pure_kv(self):
        """Symmetric pinned case: IO-bound platform whose KV bytes move
        faster than hidden bytes restore (e.g. heavily quantized KV).
        Pure KV offload beats every recompute mix."""
        scheduler = BubbleFreeScheduler(8)
        prof = profile(4.0, 1.0, 1.0, 10.0)  # io-bound, io_kv << io_h
        assert not prof.compute_bound
        decision = scheduler.schedule(prof)
        assert decision.scheme.n_kv == 8
        assert decision.scheme.n_hidden == 0
        best = scheduler.schedule_by_search(prof)
        assert decision.predicted_makespan <= best.predicted_makespan + 1e-12

    def test_bubble_small_after_scheduling(self):
        scheduler = BubbleFreeScheduler(40)
        prof = profile(1.0, 2.0, 3.0, 12.0)
        decision = scheduler.schedule(prof)
        assert decision.predicted_bubble_fraction < 0.15


class TestRealPlatforms:
    def test_7b_schedule_matches_table3(self, seven_b):
        """Table 3: 7B on the default testbed = "31 H + 1 KV" (balanced)."""
        platform = platform_preset("default")
        prof = profile_platform(seven_b, platform, 1024)
        decision = BubbleFreeScheduler(seven_b.n_layers).schedule(prof)
        assert decision.scheme.n_hidden >= 30  # almost everything via HCache
        # Compute-bound: the complement is a KV suffix and layer 0 stays
        # stored (token-sourcing it there is the mixed-scheme follow-up).
        assert prof.compute_bound
        assert decision.scheme.n_kv == 1 and decision.scheme.n_recompute == 0

    def test_13b_schedule_close_to_table3(self, thirteen_b):
        """Table 3: 13B = "36 H + 4 KV"."""
        platform = platform_preset("default")
        prof = profile_platform(thirteen_b, platform, 1024)
        decision = BubbleFreeScheduler(thirteen_b.n_layers).schedule(prof)
        assert decision.scheme.n_kv > 0
        assert 33 <= decision.scheme.n_hidden <= 38

    def test_30b_uses_recompute_complement(self, opt_30b):
        """Table 3: 30B = "40 H + 8 RE" (IO-bound with 4 GPUs, 4 SSDs)."""
        platform = platform_preset("a100x4-4ssd")
        prof = profile_platform(opt_30b, platform, 1024)
        decision = BubbleFreeScheduler(opt_30b.n_layers).schedule(prof)
        assert decision.scheme.n_recompute > 0
        assert 38 <= decision.scheme.n_hidden <= 44

    def test_one_ssd_pushes_towards_recompute(self, seven_b):
        """Fewer disks -> IO-bound -> recompute fills the bubble."""
        platform = platform_preset("compute-sufficient")
        prof = profile_platform(seven_b, platform, 1024)
        decision = BubbleFreeScheduler(seven_b.n_layers).schedule(prof)
        assert decision.scheme.n_recompute > 0

    def test_long_context_falls_back_to_hcache_only(self, seven_b):
        """§6.2.3: with long histories token recompute becomes expensive
        and the scheduler drops it."""
        platform = platform_preset("compute-sufficient")
        short = BubbleFreeScheduler(32).schedule(profile_platform(seven_b, platform, 512))
        long = BubbleFreeScheduler(32).schedule(
            profile_platform(seven_b, platform, 16384)
        )
        assert long.scheme.n_recompute <= short.scheme.n_recompute

    def test_describe_contains_makespan(self, seven_b):
        platform = platform_preset("default")
        prof = profile_platform(seven_b, platform, 1024)
        text = BubbleFreeScheduler(32).schedule(prof).describe()
        assert "ms" in text and "H" in text
