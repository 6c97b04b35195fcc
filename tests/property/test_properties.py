"""Property-based tests (hypothesis) on core data structures and invariants.

These generalize the unit tests: the losslessness of HCache restoration,
storage round-trips, scheduler optimality, two-stream timing bounds, LRU
bounds, and storage byte accounting must hold for *arbitrary* inputs, not just
the hand-picked ones.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.partition import LayerMethod, PartitionScheme
from repro.core.profiler import HardwareProfile
from repro.core.restoration import two_stream_timing
from repro.core.scheduler import BubbleFreeScheduler
from repro.cache.lru import LRUCache
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden
from repro.models.transformer import Transformer
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
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
    restored = naive_restore_cache_from_hidden(model, result.hidden_states)
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
    full = KVCache(model.config)
    model.forward(tokens, full)
    prefix_cache, _ = model.recompute_prefix(tokens, n_prefix)
    for layer in range(n_prefix):
        fk, fv = full.get(layer)
        pk, pv = prefix_cache.get(layer)
        assert np.allclose(fk, pk, atol=1e-5)
        assert np.allclose(fv, pv, atol=1e-5)


# ---------------------------------------------------------------------------
# chunk layout / storage byte accounting
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
@given(extends=st.lists(st.integers(0, 200), min_size=1, max_size=20))
def test_allocator_accounting_consistent(extends, default_platform):
    """The manager's byte counter holds a whole chunk for every chunk a
    run has started, and a free returns exactly that."""
    from repro.core.profiler import build_storage_array
    from repro.storage.manager import StorageManager

    layout = ChunkLayout(tokens_per_chunk=64, bytes_per_token=10 * 4)
    manager = StorageManager(build_storage_array(default_platform))
    manager.register_context("ctx", n_layers=1, hidden_width=10)
    total = 0
    for n in extends:
        manager.append("ctx", 0, np.zeros((n, 10), dtype=np.float32))
        total += n
        assert manager.tokens_stored("ctx", 0) == total
        assert manager.allocated_bytes == layout.allocated_bytes(total)
        assert manager.context_bytes("ctx") == manager.allocated_bytes
        assert manager.per_token_bytes("ctx") * total == layout.used_bytes(total)
    freed = manager.free_context("ctx")
    assert freed == layout.allocated_bytes(total)
    assert manager.allocated_bytes == 0


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
#: are pinned as explicit examples.
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
    all-KV, and all-recompute, for any profiled hardware point: all
    three are family members, so only the 1e-12 s tie rule separates
    them."""
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
        assert decision.predicted_makespan <= two_stream_timing(pure, profile).makespan + 1e-12


@SETTINGS
# Compute-bound, two layers: token-sourcing layer 0 would beat every KV
# mix, but the family keeps a stored layer 0 on a compute-bound profile.
@example(io_h=2.5, c_h=3.0, n_layers=2)
@given(
    io_h=st.floats(0.5, 4.0),
    c_h=st.floats(0.5, 4.0),
    n_layers=st.integers(2, 40),
)
def test_schedule_is_the_search_optimum(io_h, c_h, n_layers, schedule_oracle):
    profile = HardwareProfile(
        model="prop",
        n_tokens=1024,
        io_hidden=io_h,
        io_kv=2 * io_h,
        compute_hidden=c_h,
        compute_token=10 * c_h,
    )
    decision = BubbleFreeScheduler(n_layers).schedule(profile)
    scheme, timing = schedule_oracle(n_layers, profile)
    assert decision.scheme == scheme
    assert decision.predicted_makespan == timing.makespan


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
    stored = two_stream_timing(PartitionScheme.pure_hcache(n_layers), profile)
    sourced = two_stream_timing(PartitionScheme.with_recompute_prefix(n_layers, 1), profile)
    assert sourced.compute_busy == stored.compute_busy
    assert sourced.io_busy == pytest.approx(stored.io_busy - io_h)
    assert sourced.makespan <= stored.makespan
    # A longer prefix pays the full-layer forward for all but its last layer.
    longer = two_stream_timing(PartitionScheme.with_recompute_prefix(n_layers, 2), profile)
    assert longer.compute_busy == pytest.approx(profile.compute_token + (n_layers - 1) * c_h)
    if not profile.compute_bound:
        decision = BubbleFreeScheduler(n_layers).schedule(profile)
        assert decision.scheme.methods[0] is LayerMethod.RECOMPUTE


# ---------------------------------------------------------------------------
# two-stream timing invariants
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    times=st.tuples(*[st.floats(0.0, 5.0)] * 4),
    n_recompute=st.integers(0, 16),
    n_kv=st.integers(0, 16),
    n_hidden=st.integers(0, 16),
)
def test_two_stream_timing_invariants(times, n_recompute, n_kv, n_hidden):
    """The makespan lies between the busier stream's work and the sum of
    both streams' work, and neither stream's bubble is negative."""
    if n_recompute + n_kv + n_hidden == 0:
        n_hidden = 1
    io_h, io_kv, c_h, c_tok = times
    profile = HardwareProfile("prop", 1024, io_h, io_kv, c_h, c_tok)
    scheme = PartitionScheme(
        (LayerMethod.RECOMPUTE,) * n_recompute
        + (LayerMethod.HIDDEN,) * n_hidden
        + (LayerMethod.KV,) * n_kv
    )
    timing = two_stream_timing(scheme, profile)
    assert timing.makespan >= max(timing.io_busy, timing.compute_busy) - 1e-9
    assert timing.makespan <= timing.io_busy + timing.compute_busy + 1e-9
    assert timing.io_bubble >= -1e-9
    assert timing.compute_bubble >= -1e-9


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
