"""Tests for the two-stream restoration timing (§4.1, Fig. 5/8).

Every cell states the paper's pipeline arithmetic in closed form and
checks the walk against it: makespan, and each stream's busy and bubble
time.  An event replay of the per-layer task graph the walk stands for
pins it bit for bit on arbitrary schemes and profiles.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import LayerMethod, PartitionScheme, TokenPartition
from repro.core.profiler import HardwareProfile
from repro.core.restoration import tokenwise_timing, two_stream_timing
from repro.core.scheduler import BubbleFreeScheduler
from repro.simulator.hardware import platform_preset

N_LAYERS = 6

#: (IO_H, IO_KV, C_H, C_token) per layer, seconds.
PROFILES = {
    "io-bound": (2.0, 4.0, 1.0, 10.0),
    "compute-bound": (1.0, 2.0, 3.0, 20.0),
    "balanced": (1.5, 3.0, 1.5, 9.0),
    "io-heavy": (5.0, 10.0, 0.5, 4.0),
    "compute-heavy": (0.25, 0.5, 4.0, 40.0),
    "cheap-recompute": (1.0, 2.0, 2.0, 1.5),
    "fractional": (0.1, 0.2, 0.3, 0.7),
}


def make_profile(io_h, io_kv, c_h, c_tok, n_tokens=1024):
    return HardwareProfile("synthetic", n_tokens, io_h, io_kv, c_h, c_tok)


def hidden_pipeline(n_hidden: int, io_h: float, c_h: float) -> float:
    """Finish time of ``n_hidden`` read → project layers from time zero:
    IO-bound ``N·IO_H + C_H``, compute-bound ``IO_H + N·C_H``."""
    if io_h >= c_h:
        return n_hidden * io_h + c_h
    return io_h + n_hidden * c_h


def assert_timing(timing, makespan, io_busy, compute_busy, io_bubble, compute_bubble):
    walked = (
        timing.makespan,
        timing.io_busy,
        timing.compute_busy,
        timing.io_bubble,
        timing.compute_bubble,
    )
    expected = (makespan, io_busy, compute_busy, io_bubble, compute_bubble)
    assert walked == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.fixture(params=sorted(PROFILES))
def times(request):
    return PROFILES[request.param]


class TestClosedForms:
    def test_all_hidden(self, times):
        io_h, io_kv, c_h, c_tok = times
        n = N_LAYERS
        timing = two_stream_timing(
            PartitionScheme.pure_hcache(n), make_profile(*times)
        )
        makespan = hidden_pipeline(n, io_h, c_h)
        assert_timing(
            timing,
            makespan,
            io_busy=n * io_h,
            compute_busy=n * c_h,
            io_bubble=makespan - n * io_h,
            compute_bubble=makespan - io_h - n * c_h,
        )

    def test_kv_suffix(self, times):
        """Fig. 8d: the KV reads follow the hidden reads on the IO stream."""
        io_h, io_kv, c_h, c_tok = times
        n_kv = 2
        n_hidden = N_LAYERS - n_kv
        timing = two_stream_timing(
            PartitionScheme.with_kv_suffix(N_LAYERS, n_kv), make_profile(*times)
        )
        io_busy = n_hidden * io_h + n_kv * io_kv
        makespan = max(io_busy, hidden_pipeline(n_hidden, io_h, c_h))
        assert_timing(
            timing,
            makespan,
            io_busy=io_busy,
            compute_busy=n_hidden * c_h,
            io_bubble=makespan - io_busy,
            compute_bubble=makespan - io_h - n_hidden * c_h,
        )

    @pytest.mark.parametrize("n_recompute", [1, 2])
    def test_recompute_prefix(self, times, n_recompute):
        """§4.1.2: hidden reads prefetch under the prefix; the prefix's
        last layer costs a projection, the others a full-layer forward."""
        io_h, io_kv, c_h, c_tok = times
        n_hidden = N_LAYERS - n_recompute
        prefix = (n_recompute - 1) * c_tok + c_h
        timing = two_stream_timing(
            PartitionScheme.with_recompute_prefix(N_LAYERS, n_recompute),
            make_profile(*times),
        )
        compute_busy = prefix + n_hidden * c_h
        makespan = max(compute_busy, hidden_pipeline(n_hidden, io_h, c_h))
        assert_timing(
            timing,
            makespan,
            io_busy=n_hidden * io_h,
            compute_busy=compute_busy,
            io_bubble=makespan - n_hidden * io_h,
            compute_bubble=makespan - compute_busy,
        )

    def test_pure_kv(self, times):
        io_h, io_kv, c_h, c_tok = times
        timing = two_stream_timing(PartitionScheme.pure_kv(N_LAYERS), make_profile(*times))
        assert_timing(timing, N_LAYERS * io_kv, N_LAYERS * io_kv, 0.0, 0.0, 0.0)
        # An idle stream's busy time is a float zero, not sum([])'s int.
        assert isinstance(timing.compute_busy, float)

    def test_pure_recompute(self, times):
        io_h, io_kv, c_h, c_tok = times
        timing = two_stream_timing(
            PartitionScheme.pure_recompute(N_LAYERS), make_profile(*times)
        )
        compute = (N_LAYERS - 1) * c_tok + c_h
        assert_timing(timing, compute, 0.0, compute, 0.0, 0.0)
        assert isinstance(timing.io_busy, float)

    def test_decision_reads_its_own_timing(self, times):
        """The scheduler times each candidate once: its makespan and
        bottleneck bubble fraction come from the chosen scheme's record."""
        profile = make_profile(*times)
        decision = BubbleFreeScheduler(N_LAYERS).schedule(profile)
        timing = two_stream_timing(decision.scheme, profile)
        bubble = timing.compute_bubble if profile.compute_bound else timing.io_bubble
        assert decision.predicted_makespan == timing.makespan
        assert decision.predicted_bubble_fraction == bubble / timing.makespan


class TestTokenwiseShape:
    @pytest.mark.parametrize("platform", ["compute-sufficient", "default", "io-sufficient"])
    @pytest.mark.parametrize("n_hidden", [0, 512, 794, 1024])
    def test_per_layer_pipeline(self, thirteen_b, platform, n_hidden):
        """Fig. 8c: every layer reads its hidden shard, then projects it
        and recomputes the rest, so the layers pipeline like all-hidden
        ones with those per-layer costs."""
        n = thirteen_b.n_layers
        timing = tokenwise_timing(
            thirteen_b, platform_preset(platform), TokenPartition(n_hidden, 1024 - n_hidden)
        )
        io, compute = timing.io_busy / n, timing.compute_busy / n
        makespan = hidden_pipeline(n, io, compute)
        assert timing.n_tokens == 1024
        assert_timing(
            timing,
            makespan,
            io_busy=n * io,
            compute_busy=n * compute,
            io_bubble=makespan - n * io,
            compute_bubble=makespan - io - n * compute,
        )


class TestPipelineShape:
    def test_kv_layers_fill_io_bubble(self):
        """Fig. 8d: on a compute-bound profile, KV reads on the idle IO
        stream beat restoring every layer from hidden states."""
        profile = make_profile(1.0, 2.0, 2.0, 20.0)
        pure = two_stream_timing(PartitionScheme.pure_hcache(6), profile)
        mixed = two_stream_timing(PartitionScheme.with_kv_suffix(6, 2), profile)
        assert mixed.makespan < pure.makespan

    def test_kv_read_waits_for_hidden_reads(self):
        """The KV read starts when the hidden read ends, not at zero."""
        scheme = PartitionScheme((LayerMethod.HIDDEN, LayerMethod.KV))
        timing = two_stream_timing(scheme, make_profile(1.0, 5.0, 1.0, 9.0))
        assert timing.makespan == 6.0
        assert timing.io_bubble == 0.0

    def test_prefetch_overlaps_recompute(self):
        """§4.1.2: hidden reads prefetch during token recomputation, and
        projections wait for it."""
        scheme = PartitionScheme.with_recompute_prefix(5, 2)
        timing = two_stream_timing(scheme, make_profile(1.0, 2.0, 0.5, 3.5))
        # prefix 3.5 + 0.5 = 4.0; the three reads landed by 3.0.
        assert timing.makespan == 4.0 + 3 * 0.5
        assert timing.compute_bubble == 0.0
        assert timing.io_bubble == timing.makespan - 3.0

    def test_n_tokens_from_profile(self):
        timing = two_stream_timing(
            PartitionScheme.pure_hcache(2), make_profile(1.0, 2.0, 1.0, 9.0, n_tokens=333)
        )
        assert timing.n_tokens == 333
        assert timing.restoration_speed == 333 / timing.makespan


def event_replay(scheme: PartitionScheme, profile: HardwareProfile) -> tuple:
    """Replay the restore as a per-layer task graph on named streams: a
    task starts when its stream is free and its dependencies have ended;
    a stream's bubble is its idle time from its first start to the end."""
    tasks: list[tuple[str, float, tuple[int, ...]]] = []

    def submit(stream, duration, deps=()):
        tasks.append((stream, duration, deps))
        return len(tasks) - 1

    last_recompute = scheme.n_recompute - 1
    prefix = [
        submit("compute", profile.compute_hidden if layer == last_recompute else profile.compute_token)
        for layer in scheme.layers_with(LayerMethod.RECOMPUTE)
    ]
    hidden = scheme.layers_with(LayerMethod.HIDDEN)
    reads = {layer: submit("io", profile.io_hidden) for layer in hidden}
    for layer in hidden:
        submit("compute", profile.compute_hidden, (reads[layer],) + tuple(prefix[-1:]))
    for _ in scheme.layers_with(LayerMethod.KV):
        submit("io", profile.io_kv)

    tails: dict[str, float] = {}
    starts, ends = [], []
    for stream, duration, deps in tasks:
        ready = max((ends[d] for d in deps), default=0.0)
        start = max(tails.get(stream, 0.0), ready, 0.0)
        starts.append(start)
        ends.append(start + duration)
        tails[stream] = ends[-1]
    makespan = max(ends) - 0.0

    def busy_and_bubble(name):
        mine = [i for i, (stream, _, _) in enumerate(tasks) if stream == name]
        busy = sum(tasks[i][1] for i in mine)
        if not mine:
            return busy, 0.0
        return busy, ((0.0 + makespan) - min(starts[i] for i in mine)) - busy

    io_busy, io_bubble = busy_and_bubble("io")
    compute_busy, compute_bubble = busy_and_bubble("compute")
    return makespan, io_busy, compute_busy, io_bubble, compute_bubble


_SECONDS = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    n_recompute=st.integers(0, 8),
    stored=st.lists(st.sampled_from([LayerMethod.HIDDEN, LayerMethod.KV]), max_size=40),
    times=st.tuples(_SECONDS, _SECONDS, _SECONDS, _SECONDS),
)
def test_walk_matches_event_replay_bit_for_bit(n_recompute, stored, times):
    """Hidden and KV layers in any order (the KV reads still queue behind
    every hidden read), any prefix, durations from zero to a second."""
    if n_recompute + len(stored) == 0:
        stored = [LayerMethod.HIDDEN]
    scheme = PartitionScheme((LayerMethod.RECOMPUTE,) * n_recompute + tuple(stored))
    profile = make_profile(*times)
    timing = two_stream_timing(scheme, profile)
    walked = (
        timing.makespan,
        timing.io_busy,
        timing.compute_busy,
        timing.io_bubble,
        timing.compute_bubble,
    )
    assert walked == event_replay(scheme, profile)
