"""Tests for the bubble-free restoration scheduler (§4.1.2)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.partition import PartitionScheme
from repro.core.profiler import HardwareProfile, profile_platform
from repro.core.restoration import two_stream_timing
from repro.core.scheduler import BubbleFreeScheduler
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
    def test_schedule_is_the_exhaustive_optimum(self, prof, schedule_oracle):
        scheduler = BubbleFreeScheduler(32)
        decision = scheduler.schedule(prof)
        scheme, timing = schedule_oracle(32, prof)
        assert decision.scheme == scheme
        assert decision.predicted_makespan == timing.makespan

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
            assert decision.predicted_makespan <= two_stream_timing(pure, prof).makespan + 1e-12

    def test_compute_bound_cheap_recompute_picks_pure_recompute(self, schedule_oracle):
        """Pinned: compute-bound platform with C_token < C_H (outside the
        paper's regime — recomputing a layer is cheaper than its
        projection).  The regime complement (KV offload) can never beat
        pure recompute here, so the scheduler must not return a KV mix."""
        scheduler = BubbleFreeScheduler(8)
        prof = profile(1.0, 2.0, 5.0, 1.0)  # compute-bound, c_tok < c_h
        assert prof.compute_bound
        decision = scheduler.schedule(prof)
        assert decision.scheme.n_recompute == 8
        assert decision.scheme.n_hidden == 0
        pure_recompute = PartitionScheme.pure_recompute(8)
        assert (
            decision.predicted_makespan
            <= two_stream_timing(pure_recompute, prof).makespan + 1e-12
        )
        assert decision.scheme == schedule_oracle(8, prof)[0]

    def test_io_bound_cheap_kv_picks_pure_kv(self, schedule_oracle):
        """Symmetric pinned case: IO-bound platform whose KV bytes move
        faster than hidden bytes restore (e.g. heavily quantized KV).
        Pure KV offload beats every recompute mix."""
        scheduler = BubbleFreeScheduler(8)
        prof = profile(4.0, 1.0, 1.0, 10.0)  # io-bound, io_kv << io_h
        assert not prof.compute_bound
        decision = scheduler.schedule(prof)
        assert decision.scheme.n_kv == 8
        assert decision.scheme.n_hidden == 0
        assert decision.scheme == schedule_oracle(8, prof)[0]

    def test_bubble_small_after_scheduling(self):
        scheduler = BubbleFreeScheduler(40)
        prof = profile(1.0, 2.0, 3.0, 12.0)
        decision = scheduler.schedule(prof)
        assert decision.predicted_bubble_fraction < 0.15


#: Per-layer seconds from 0 to 10 s, with exact values over-weighted so
#: members tie: zero costs, ``C_token < C_H`` and ``IO_KV < IO_H`` all
#: come up.
COSTS = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(0.0, 10.0))


@settings(max_examples=200, deadline=None)
# Bench-mid (12 layers) at 1 024 tokens, as the restore-follows-the-walk
# twin prices it at 0.1, 0.3 and 1 GB/s.
@example(io_h=21.3e-3, io_kv=42.3e-3, c_h=10.5e-3, c_tok=96e-3, n_layers=12)
@example(io_h=7.3e-3, io_kv=14.3e-3, c_h=10.5e-3, c_tok=96e-3, n_layers=12)
@example(io_h=2.4e-3, io_kv=4.5e-3, c_h=10.5e-3, c_tok=96e-3, n_layers=12)
@example(io_h=0.0, io_kv=0.0, c_h=0.0, c_tok=0.0, n_layers=48)
@example(io_h=1.0, io_kv=2.0, c_h=5.0, c_tok=1.0, n_layers=1)
@given(io_h=COSTS, io_kv=COSTS, c_h=COSTS, c_tok=COSTS, n_layers=st.integers(1, 48))
def test_schedule_equals_the_exhaustive_search(
    io_h, io_kv, c_h, c_tok, n_layers, schedule_oracle
):
    """The scheduler's decision is the oracle's, in scheme and makespan:
    the sweep prices every member exactly as the walk does, and keeps the
    search's tie order."""
    prof = HardwareProfile("synthetic", 1024, io_h, io_kv, c_h, c_tok)
    decision = BubbleFreeScheduler(n_layers).schedule(prof)
    scheme, timing = schedule_oracle(n_layers, prof)
    assert decision.scheme == scheme
    assert decision.predicted_makespan == timing.makespan


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

    def test_13b_compute_sufficient_takes_the_optimum_off_the_closed_form(
        self, thirteen_b, schedule_oracle
    ):
        """The closed form gives L_H = 32 here, and its neighbour 31 H + 9 RE
        (50.09 ms) is not the optimum: 30 H + 10 RE (49.96 ms) is."""
        prof = profile_platform(thirteen_b, platform_preset("compute-sufficient"), 1024)
        scheduler = BubbleFreeScheduler(thirteen_b.n_layers)
        assert scheduler.closed_form_l_h(prof) == 32
        decision = scheduler.schedule(prof)
        assert decision.scheme == PartitionScheme.with_recompute_prefix(40, 10)
        assert decision.scheme.describe() == "30 H + 10 RE"
        assert decision.predicted_makespan == schedule_oracle(40, prof)[1].makespan

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
