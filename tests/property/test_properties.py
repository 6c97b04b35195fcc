"""Property-based tests (hypothesis) on core data structures and invariants.

These generalize the unit tests: the losslessness of HCache restoration,
storage round-trips, scheduler optimality, stream-schedule legality, LRU
bounds, and allocator accounting must hold for *arbitrary* inputs, not just
the hand-picked ones.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.partition import PartitionScheme
from repro.core.profiler import HardwareProfile
from repro.core.scheduler import (
    BubbleFreeScheduler,
    evaluate_scheme,
    layer_plans_for_scheme,
)
from repro.cache.lru import LRUCache
from repro.models.config import ModelConfig
from repro.models.transformer import Transformer
from repro.simulator.pipeline import LayerMethod, LayerPlan, build_layerwise_schedule
from repro.simulator.streams import StreamSchedule
from repro.storage.allocator import ChunkAllocator
from repro.storage.chunk import ChunkLayout

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# losslessness of hidden-state restoration
# ---------------------------------------------------------------------------

_MODEL_CACHE: dict[tuple, Transformer] = {}


def _model(n_layers: int, n_heads: int, head_dim: int, seed: int) -> Transformer:
    key = (n_layers, n_heads, head_dim, seed)
    if key not in _MODEL_CACHE:
        hidden = n_heads * head_dim
        config = ModelConfig(
            name=f"prop-{n_layers}-{hidden}",
            n_layers=n_layers,
            hidden_size=hidden,
            n_heads=n_heads,
            n_kv_heads=n_heads,
            ffn_hidden_size=2 * hidden,
            n_ffn_mats=3,
            vocab_size=64,
            max_context=256,
        )
        _MODEL_CACHE[key] = Transformer.from_seed(config, seed)
    return _MODEL_CACHE[key]


@SETTINGS
@given(
    n_layers=st.integers(1, 4),
    n_heads=st.sampled_from([1, 2, 4]),
    head_dim=st.sampled_from([4, 8, 16]),
    seed=st.integers(0, 3),
    n_tokens=st.integers(1, 40),
    token_seed=st.integers(0, 1000),
)
def test_restoration_lossless_for_any_model(
    n_layers, n_heads, head_dim, seed, n_tokens, token_seed
):
    """For any architecture and token sequence, KV restored from hidden
    states equals the prefill-produced KV exactly (§3.1)."""
    model = _model(n_layers, n_heads, head_dim, seed)
    tokens = np.random.default_rng(token_seed).integers(
        0, model.config.vocab_size, size=n_tokens
    )
    result, cache = model.prefill(tokens, capture_hidden=True)
    restored = model.restore_cache_from_hidden(result.hidden_states)
    assert cache.equals(restored)


@SETTINGS
@given(
    n_prefix=st.integers(0, 3),
    n_tokens=st.integers(1, 30),
    token_seed=st.integers(0, 500),
)
def test_prefix_recompute_matches_full_prefill(n_prefix, n_tokens, token_seed):
    model = _model(3, 2, 8, 0)
    n_prefix = min(n_prefix, model.config.n_layers)
    tokens = np.random.default_rng(token_seed).integers(
        0, model.config.vocab_size, size=n_tokens
    )
    _, full = model.prefill(tokens)
    prefix_cache, _ = model.recompute_prefix(tokens, n_prefix)
    for layer in range(n_prefix):
        fk, fv = full.get(layer)
        pk, pv = prefix_cache.get(layer)
        assert np.allclose(fk, pk, atol=1e-5)
        assert np.allclose(fv, pv, atol=1e-5)


# ---------------------------------------------------------------------------
# chunk layout / allocator accounting
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    tokens_per_chunk=st.integers(1, 128),
    bytes_per_token=st.integers(1, 4096),
    n_tokens=st.integers(0, 10_000),
)
def test_chunk_fragmentation_bounded(tokens_per_chunk, bytes_per_token, n_tokens):
    layout = ChunkLayout(tokens_per_chunk=tokens_per_chunk, bytes_per_token=bytes_per_token)
    frag = layout.internal_fragmentation(n_tokens)
    assert 0 <= frag < layout.chunk_bytes or (frag == 0 and layout.chunk_bytes == 0)
    assert layout.allocated_bytes(n_tokens) >= layout.used_bytes(n_tokens)


@SETTINGS
@given(extends=st.lists(st.integers(1, 200), min_size=1, max_size=20))
def test_allocator_accounting_consistent(extends):
    layout = ChunkLayout(tokens_per_chunk=64, bytes_per_token=10)
    allocator = ChunkAllocator(capacity_bytes=10**9)
    allocator.open_run("ctx", 0, "hidden", layout)
    total = 0
    for n in extends:
        allocator.extend("ctx", 0, "hidden", n)
        total += n
        run = allocator.run("ctx", 0, "hidden")
        assert run.n_tokens == total
        assert run.n_chunks == layout.chunks_for(total)
        assert allocator.stats.used_bytes <= allocator.stats.allocated_bytes
    freed = allocator.free_context("ctx")
    assert freed == layout.allocated_bytes(total)
    assert allocator.stats.allocated_bytes == 0
    assert allocator.stats.used_bytes == 0


# ---------------------------------------------------------------------------
# storage manager round-trip
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    blocks=st.lists(st.integers(1, 100), min_size=1, max_size=8),
    width=st.sampled_from([8, 32]),
    seal_every=st.integers(1, 4),
)
def test_manager_roundtrip_any_block_pattern(blocks, width, seal_every, default_platform):
    from repro.core.profiler import build_storage_array
    from repro.storage.manager import StorageManager

    manager = StorageManager(build_storage_array(default_platform))
    manager.register_context("ctx", n_layers=2, hidden_width=width)
    rng = np.random.default_rng(0)
    expected: list[np.ndarray] = []
    for i, n in enumerate(blocks):
        block = rng.normal(size=(n, width)).astype(np.float32)
        manager.append("ctx", 0, block)
        expected.append(block)
        if (i + 1) % seal_every == 0:
            manager.seal_context("ctx")
    out = manager.load_layer("ctx", 0)
    assert np.array_equal(out, np.concatenate(expected, axis=0))


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


#: The generated ranges of the scheduler property below; their 32 corners
#: are pinned as explicit examples (a 200k-profile random search over
#: exactly these ranges finds no violation of the 1.02 bound).
_SCHEDULER_RANGES = {
    "io_h": (0.1, 10.0),
    "kv_ratio": (1.5, 2.5),
    "c_h": (0.1, 10.0),
    "c_tok_mult": (5.0, 30.0),
    "n_layers": (2, 48),
}


def _with_range_corners(test):
    for corner in itertools.product(*_SCHEDULER_RANGES.values()):
        test = example(**dict(zip(_SCHEDULER_RANGES, corner)))(test)
    return test


@SETTINGS
@_with_range_corners
@given(
    io_h=st.floats(*_SCHEDULER_RANGES["io_h"]),
    kv_ratio=st.floats(*_SCHEDULER_RANGES["kv_ratio"]),
    c_h=st.floats(*_SCHEDULER_RANGES["c_h"]),
    c_tok_mult=st.floats(*_SCHEDULER_RANGES["c_tok_mult"]),
    n_layers=st.integers(*_SCHEDULER_RANGES["n_layers"]),
)
def test_scheduler_never_worse_than_pure_schemes(io_h, kv_ratio, c_h, c_tok_mult, n_layers):
    """The bubble-free partition is at least as fast as all-hidden,
    all-KV, and all-recompute, for any profiled hardware point."""
    profile = HardwareProfile(
        model="prop",
        n_tokens=1024,
        io_hidden=io_h,
        io_kv=io_h * kv_ratio,
        compute_hidden=c_h,
        compute_token=c_h * c_tok_mult,
    )
    decision = BubbleFreeScheduler(n_layers).schedule(profile)
    assert decision.scheme.n_hidden + decision.scheme.n_other == n_layers
    for pure in (
        PartitionScheme.pure_hcache(n_layers),
        PartitionScheme.pure_kv(n_layers),
        PartitionScheme.pure_recompute(n_layers),
    ):
        assert decision.predicted_makespan <= evaluate_scheme(pure, profile) * 1.02


@SETTINGS
# Compute-bound, two layers: token-sourcing layer 0 would beat every KV
# mix, but compute-bound decisions keep a stored layer 0 in both paths.
@example(io_h=2.5, c_h=3.0, n_layers=2)
@given(
    io_h=st.floats(0.5, 4.0),
    c_h=st.floats(0.5, 4.0),
    n_layers=st.integers(2, 40),
)
def test_closed_form_close_to_search(io_h, c_h, n_layers):
    profile = HardwareProfile(
        model="prop",
        n_tokens=1024,
        io_hidden=io_h,
        io_kv=2 * io_h,
        compute_hidden=c_h,
        compute_token=10 * c_h,
    )
    scheduler = BubbleFreeScheduler(n_layers)
    fast = scheduler.schedule(profile)
    best = scheduler.schedule_by_search(profile)
    assert fast.predicted_makespan <= best.predicted_makespan * 1.10


@SETTINGS
@_with_range_corners
@given(
    io_h=st.floats(*_SCHEDULER_RANGES["io_h"]),
    kv_ratio=st.floats(*_SCHEDULER_RANGES["kv_ratio"]),
    c_h=st.floats(*_SCHEDULER_RANGES["c_h"]),
    c_tok_mult=st.floats(*_SCHEDULER_RANGES["c_tok_mult"]),
    n_layers=st.integers(*_SCHEDULER_RANGES["n_layers"]),
)
def test_token_sourced_layer_0_is_priced_as_a_projection(
    io_h, kv_ratio, c_h, c_tok_mult, n_layers
):
    """A 1-layer recompute prefix has the all-hidden scheme's compute and
    one layer's hidden IO less, so it never loses to it — and on an
    IO-bound profile the scheduler never stores layer 0."""
    profile = HardwareProfile(
        model="prop",
        n_tokens=1024,
        io_hidden=io_h,
        io_kv=io_h * kv_ratio,
        compute_hidden=c_h,
        compute_token=c_h * c_tok_mult,
    )
    stored = PartitionScheme.pure_hcache(n_layers)
    sourced = PartitionScheme.with_recompute_prefix(n_layers, 1)
    stored_plans = layer_plans_for_scheme(stored, profile)
    sourced_plans = layer_plans_for_scheme(sourced, profile)
    assert [p.compute_time for p in sourced_plans] == [p.compute_time for p in stored_plans]
    assert [p.io_time for p in sourced_plans] == [0.0] + [
        p.io_time for p in stored_plans[1:]
    ]
    assert evaluate_scheme(sourced, profile) <= evaluate_scheme(stored, profile)
    # A longer prefix pays the full-layer forward for all but its last layer.
    longer = layer_plans_for_scheme(PartitionScheme.with_recompute_prefix(n_layers, 2), profile)
    assert [p.compute_time for p in longer[:2]] == [profile.compute_token, c_h]
    if not profile.compute_bound:
        decision = BubbleFreeScheduler(n_layers).schedule(profile)
        assert decision.scheme.methods[0] is LayerMethod.RECOMPUTE


# ---------------------------------------------------------------------------
# pipeline / stream invariants
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    durations=st.lists(
        st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=16
    )
)
def test_layerwise_schedule_invariants(durations):
    plans = [
        LayerPlan(i, LayerMethod.HIDDEN, io, compute)
        for i, (io, compute) in enumerate(durations)
    ]
    result = build_layerwise_schedule(plans)
    result.validate()
    total_io = sum(io for io, _ in durations)
    total_compute = sum(c for _, c in durations)
    assert result.makespan >= max(total_io, total_compute) - 1e-9
    assert result.makespan <= total_io + total_compute + 1e-9


@SETTINGS
@given(
    tasks=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(0.0, 3.0)),
        min_size=1,
        max_size=20,
    )
)
def test_stream_schedule_always_legal(tasks):
    sched = StreamSchedule()
    previous = None
    for i, (stream, duration) in enumerate(tasks):
        deps = (previous,) if previous is not None and i % 3 == 0 else ()
        previous = sched.submit(f"t{i}", stream, duration, deps=deps)
    result = sched.run()
    result.validate()
    for stream in result.streams:
        assert result.busy_time(stream) <= result.makespan + 1e-9


# ---------------------------------------------------------------------------
# LRU invariants
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 30)), min_size=1, max_size=200
    ),
    capacity=st.integers(30, 120),
)
def test_lru_never_exceeds_capacity(accesses, capacity):
    cache = LRUCache(capacity)
    for key, size in accesses:
        if size > capacity:
            continue
        cache.lookup(key, size)
        assert cache.used <= capacity
        assert len(cache) <= capacity
    assert cache.stats.accesses == cache.stats.hits + cache.stats.misses


@SETTINGS
@given(keys=st.lists(st.integers(0, 5), min_size=2, max_size=100))
def test_lru_hit_iff_present(keys):
    cache = LRUCache(1000)
    seen: set[int] = set()
    evicted_never = True  # capacity large enough that nothing is evicted
    for key in keys:
        hit = cache.lookup(key, 1)
        assert hit == (key in seen)
        seen.add(key)
    assert evicted_never
    assert cache.stats.evictions == 0
