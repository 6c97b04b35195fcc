"""One exactness matrix for every way a context can be restored.

There is one restore loop (:func:`repro.runtime.executor.drain_granules`)
and one projection kernel (:meth:`Transformer.project_kv_chunk`); what
varies is only how the loop is parameterised — no executor (inline reads,
window 1), an IO pool of 1 or 4, a ``(pipeline, tensor)`` shard shape —
and where the bytes come from (storage, a tracked pool session, or a
pool-admitted prefix plus a streamed gap).  Every combination must
restore bytes identical to the naive whole-layer reference
(:func:`naive_restore_cache_from_hidden`) and to each other, across
partition schemes, norm/RoPE flavors, GQA, partial tail chunks, granule
sizes and non-divisible layer/head splits.

The engine's default scheme token-sources layer 0 (a 1-layer RECOMPUTE
prefix): every matrix cell also runs it and a 2-layer prefix, and must
restore the same bytes as the all-stored pure-hidden engine.  Every cell
restores with a progress sink attached: whichever stages fill a layer
(hidden drain, KV drain, token-sourced prefix, pool-served prefix), it is
reported exactly once, and the returned cache is the one a restore
nobody watched returns.  The last section pins *where* the token-sourced
work runs (under the drain's first window of reads) and that layer 0
never touches a device.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.runtime import RestoreProgress
from repro.simulator import platform_preset
from repro.simulator.pipeline import LayerMethod
from repro.state import BlockPool, BlockStateStore
from repro.storage import StorageManager

CHUNK_TOKENS = 8
BLOCK_TOKENS = 16
SHARED_TOKENS = 72  # the donor's common prefix; admission adopts 64 of it
N_TOKENS = 125  # partial tail chunk, two streamed gap granules per layer

#: No executor at all: reads run inline at submit, window 1.
INLINE = "inline"

#: (IO pool — INLINE, a size, or None for one worker per simulated GPU —
#: and shard shape).
FLAVORS = [(INLINE, (1, 1))] + [
    (pool, shape)
    for pool in (1, 4)
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2))
]

R, H, K = LayerMethod.RECOMPUTE, LayerMethod.HIDDEN, LayerMethod.KV
SCHEMES = {
    "pure-hidden": PartitionScheme((H, H, H, H)),
    "default": None,  # the engine's own choice: (R, H, H, H)
    "recompute2+hidden": PartitionScheme((R, R, H, H)),
    "recompute+hidden+kv": PartitionScheme((R, H, H, K)),
}
POOL_STATES = ["no-store", "tracked", "admitted-gap"]

GQA_CONFIG = replace(
    model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2, n_heads=4
)


def flavor_id(flavor):
    pool, (pipeline, tensor) = flavor
    return INLINE if pool == INLINE else f"pool{pool}-{pipeline}x{tensor}"


class RecordingProgress(RestoreProgress):
    """A real sink that also lists the layers in the order they landed."""

    def __init__(self, n_layers):
        super().__init__("c", n_layers)
        self.layers = []

    def layer_landed(self, layer):
        super().layer_landed(layer)
        self.layers.append(layer)


def restore_through(engine, context_id, flavor, **kwargs):
    pool, shards = flavor
    if pool == INLINE:
        return engine.restore(context_id, **kwargs)
    with RestoreExecutor(pool, shards=shards) as executor:
        return engine.restore(context_id, executor=executor, **kwargs)


def prefill_and_save(engine, model, context_id, tokens, seal=True, block=37):
    """Save a prefilled context in several append blocks; return the
    naive-reference cache of the same hidden states."""
    engine.register_context(context_id)
    result, cache = model.prefill(tokens, capture_hidden=True)
    for start in range(0, tokens.size, block):
        stop = min(start + block, tokens.size)
        engine.save_states(
            context_id,
            [h[start:stop] for h in result.hidden_states],
            tokens[start:stop],
            kv_cache=cache,
        )
    if seal:
        engine.seal(context_id)
    oracle = naive_restore_cache_from_hidden(model, result.hidden_states)
    # Prefill-produced state: the projection replays the forward pass's
    # own GEMMs, so the naive reference IS the live cache, bit for bit —
    # which is what lets KV-offloaded and recomputed layers share it.
    assert cache.equals(oracle, atol=0.0)
    return oracle


def make_store(config):
    return BlockStateStore(
        BlockPool(
            n_layers=config.n_layers,
            block_tokens=BLOCK_TOKENS,
            n_kv_heads=config.n_kv_heads,
            head_dim=config.head_dim,
            hidden_width=config.hidden_size,
            capacity_blocks=96,
        )
    )


def build_case(scheme, pool_state):
    """A saved context ``"c"`` in the requested pool state, plus its oracle."""
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    storage = StorageManager(
        build_storage_array(platform_preset("default")), tokens_per_chunk=CHUNK_TOKENS
    )
    rng = np.random.default_rng(5)
    common = rng.integers(0, config.vocab_size, size=SHARED_TOKENS)
    tokens = np.concatenate(
        [common, rng.integers(0, config.vocab_size, size=N_TOKENS - SHARED_TOKENS)]
    )
    donor_tokens = np.concatenate([common, rng.integers(0, config.vocab_size, size=48)])
    store = make_store(config) if pool_state == "tracked" else None
    engine = HCacheEngine(model, storage, scheme=scheme, shared_store=store)
    oracle = prefill_and_save(engine, model, "c", tokens)
    if pool_state == "admitted-gap":
        # A second engine over the same storage with a fresh pool: the
        # donor's restore publishes the common prefix, so restoring "c"
        # admits it from the pool and streams only the gap.
        prefill_and_save(engine, model, "donor", donor_tokens)
        adopted = HCacheEngine(model, storage, scheme=scheme, shared_store=make_store(config))
        adopted._contexts = dict(engine._contexts)
        adopted.restore("donor")
        engine = adopted
    return engine, oracle


@pytest.fixture(scope="module")
def pure_hidden_restore():
    """The all-stored engine's inline restore of the matrix context."""
    engine, _ = build_case(SCHEMES["pure-hidden"], "no-store")
    return engine.restore("c")


@pytest.mark.parametrize("pool_state", POOL_STATES)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("flavor", FLAVORS, ids=flavor_id)
def test_every_restore_shape_is_bit_exact(flavor, scheme, pool_state, pure_hidden_restore):
    engine, oracle = build_case(SCHEMES[scheme], pool_state)
    stats = RestoreBreakdown()
    n_layers = engine.transformer.config.n_layers
    sink = RecordingProgress(n_layers)
    restored = restore_through(engine, "c", flavor, stats=stats, progress=sink)
    assert restored.equals(oracle, atol=0.0)
    # Every layer reported once (a second report raises inside the sink),
    # and the step-side handle sits on the rows that were just returned.
    assert sorted(sink.layers) == list(range(n_layers))
    assert len(restored) == len(sink.step_cache) == N_TOKENS
    assert all(
        np.shares_memory(sink.step_cache.get(layer)[0], restored.get(layer)[0])
        for layer in range(n_layers)
    )
    # Whatever a scheme sources from tokens or K/V instead of stored
    # hidden rows, every layer equals the all-stored restore's.
    assert restored.equals(pure_hidden_restore, atol=0.0)
    # ... and to the inline restore of an identically built context (a
    # restore may mutate pool state, so each side gets its own build).
    twin, _ = build_case(SCHEMES[scheme], pool_state)
    assert restored.equals(twin.restore("c"), atol=0.0)
    assert stats.shard_shape == flavor[1]
    if pool_state == "no-store":
        assert stats.shared_tokens == 0 and stats.device_reads > 0
    elif pool_state == "tracked":
        assert stats.shared_tokens == N_TOKENS and stats.device_reads == 0
    else:
        assert 0 < stats.shared_tokens < N_TOKENS and stats.device_reads > 0
        # The gap was republished: the session is now fully pool-resident.
        assert engine.shared_store.resident_tokens("c") == N_TOKENS


# ---------------------------------------------------------------------------
# model / length / granule variants, through a spread of loop shapes
# ---------------------------------------------------------------------------

VARIANT_FLAVORS = [
    (INLINE, (1, 1)),
    (1, (1, 1)),
    (2, (1, 1)),
    (4, (1, 1)),
    (None, (2, 2)),
    (None, (3, 2)),  # more stages than divide the layers evenly
    (None, (8, 1)),  # more stages than layers: clamped
    (None, (3, 3)),  # 4 KV heads over 3 ranks: uneven head ranges
]


#: (id, config, scheme factory, n_tokens, granule_chunks, seal)
VARIANTS = [
    *[
        (f"llama-{n}", "tiny-llama", None, n, 4, True)
        for n in (5, 64, 100, 197, 256)
    ],
    *[(f"llama-197-granule{g}", "tiny-llama", None, 197, g, True) for g in (1, 2, 8)],
    ("llama-97-unsealed", "tiny-llama", None, 97, 4, False),
    ("llama-145-kv-suffix", "tiny-llama", lambda n: PartitionScheme.with_kv_suffix(n, 2), 145, 4, True),
    ("gqa-150", GQA_CONFIG, None, 150, 4, True),
    # Packed K|V rows are 2 * kv_size wide, not 2 * hidden, under GQA.
    ("gqa-150-kv-suffix", GQA_CONFIG, lambda n: PartitionScheme.with_kv_suffix(n, 2), 150, 4, True),
    # tiny-opt: layernorm, no RoPE, 3 layers (not divisible by 2).
    ("opt-130", "tiny-opt", None, 130, 4, True),
]


@pytest.mark.parametrize("variant", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("flavor", VARIANT_FLAVORS, ids=flavor_id)
def test_model_length_and_granule_variants(flavor, variant):
    _, config, scheme_of, n_tokens, granule_chunks, seal = variant
    if isinstance(config, str):
        config = model_preset(config)
    if flavor[1][1] > config.n_kv_heads:
        pytest.skip("tensor split would cut a GQA group (rejected; see below)")
    model = Transformer.from_seed(config, seed=11)
    engine = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        scheme=scheme_of(config.n_layers) if scheme_of else None,
        stream_granule_chunks=granule_chunks,
    )
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=n_tokens)
    oracle = prefill_and_save(engine, model, "c", tokens, seal=seal)
    sink = RecordingProgress(config.n_layers)
    assert restore_through(engine, "c", flavor, progress=sink).equals(oracle, atol=0.0)
    assert sorted(sink.layers) == list(range(config.n_layers))


def test_gqa_oversplit_raises_before_restoring():
    """More tensor ranks than KV heads would force a boundary through a
    GQA group — must raise, never silently misproject."""
    model = Transformer.from_seed(GQA_CONFIG, seed=11)
    engine = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default")))
    )
    tokens = np.random.default_rng(5).integers(0, GQA_CONFIG.vocab_size, size=64)
    prefill_and_save(engine, model, "c", tokens)
    with RestoreExecutor(shards=(1, 3)) as executor:
        with pytest.raises(ConfigError, match="GQA group"):
            engine.restore("c", executor=executor)


@pytest.mark.parametrize("flavor", [(1, (1, 1)), (2, (1, 1)), (4, (2, 2))], ids=flavor_id)
def test_repeated_runs_through_one_executor_are_stable(flavor):
    """Shake out ordering races: repeated restores through one shared
    executor must all produce identical bytes."""
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    engine = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default")))
    )
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=197)
    oracle = prefill_and_save(engine, model, "c", tokens)
    pool, shards = flavor
    with RestoreExecutor(pool, shards=shards) as executor:
        for _ in range(5):
            assert engine.restore("c", executor=executor).equals(oracle, atol=0.0)


# ---------------------------------------------------------------------------
# token-sourced layer 0: never on a device, projected under the IO stream
# ---------------------------------------------------------------------------


def spied_default_engine():
    """A default-scheme engine whose storage appends/reads and layer
    projections are logged, in call order, into the returned list."""
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    storage = StorageManager(
        build_storage_array(platform_preset("default")), tokens_per_chunk=CHUNK_TOKENS
    )
    events = []
    real_append, real_read, real_project = (
        storage.append, storage.read_granule_into, model.project_kv_chunk
    )

    def append(context_id, layer, *args, **kwargs):
        events.append(("append", layer))
        return real_append(context_id, layer, *args, **kwargs)

    def read_granule_into(context_id, spec, out):
        events.append(("read", spec.layer))
        return real_read(context_id, spec, out)

    def project_kv_chunk(layer, *args, **kwargs):
        events.append(("project", layer))
        return real_project(layer, *args, **kwargs)

    storage.append, storage.read_granule_into = append, read_granule_into
    model.project_kv_chunk = project_kv_chunk
    engine = HCacheEngine(model, storage)
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=N_TOKENS)
    oracle = prefill_and_save(engine, model, "c", tokens)
    return engine, oracle, events


def test_layer_0_is_never_appended_or_read_and_projects_after_the_first_read():
    engine, oracle, events = spied_default_engine()
    n_layers = engine.transformer.config.n_layers
    assert {layer for kind, layer in events if kind == "append"} == set(range(1, n_layers))
    assert engine.storage.tokens_stored("c", 0) == 0
    del events[:]
    stats = RestoreBreakdown()
    assert engine.restore("c", stats=stats).equals(oracle, atol=0.0)
    # Inline, a read runs at submit: the first one precedes layer 0.
    assert events[0] == ("read", 1) and ("project", 0) in events
    assert 0 not in {layer for kind, layer in events if kind == "read"}
    # Layer 0 is projected in the stored stream's granule partition.
    per_layer = -(-N_TOKENS // (engine.stream_granule_chunks * CHUNK_TOKENS))
    assert events.count(("project", 0)) == events.count(("project", 1)) == per_layer
    assert stats.granules == per_layer * (n_layers - 1)
    assert stats.recompute_s > 0.0


def test_token_sourced_work_starts_once_the_first_window_is_in_flight():
    """On a pool the reads run on workers, so the deterministic order is
    the calling thread's: submissions vs its own projections."""
    engine, oracle, events = spied_default_engine()
    del events[:]
    with RestoreExecutor(1) as executor:
        real_submit = executor.pool.submit

        def submit(fn, /, *args, **kwargs):
            events.append(("submit", args[1].layer))
            return real_submit(fn, *args, **kwargs)

        executor.pool.submit = submit
        assert engine.restore("c", executor=executor).equals(oracle, atol=0.0)
        own = [event for event in events if event[0] != "read"]
        first_projection = own.index(("project", 0))
        # Exactly the first window, and nothing consumed yet.
        assert first_projection == executor.inflight
        assert {kind for kind, _ in own[:first_projection]} == {"submit"}
        assert ("submit", 0) not in own


def test_fully_pool_served_restore_still_projects_layer_0():
    engine, oracle = build_case(None, "tracked")
    stats = RestoreBreakdown()
    assert engine.restore("c", stats=stats).equals(oracle, atol=0.0)
    assert stats.device_reads == 0 and stats.recompute_s > 0.0


def test_save_states_rejects_a_layer_0_block_that_is_not_the_embeddings():
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=12)
    result = model.forward(tokens, KVCache(config), capture_hidden=True)
    hidden = [np.array(h) for h in result.hidden_states]
    hidden[0][3, 5] += 1.0
    engine = HCacheEngine(model, StorageManager(build_storage_array(platform_preset("default"))))
    engine.register_context("c")
    with pytest.raises(ConfigError, match="layer-0"):
        engine.save_states("c", hidden, tokens)
    # Rejected before anything was journaled or stored ...
    assert engine.saved_tokens("c") == 0 and engine.token_log("c") == ()
    # ... while the all-stored scheme takes any layer-0 rows, as before.
    stored = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        scheme=PartitionScheme.pure_hcache(config.n_layers),
    )
    stored.register_context("c")
    stored.save_states("c", hidden, tokens)
    assert stored.saved_tokens("c") == 12
