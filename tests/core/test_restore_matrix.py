"""One exactness matrix for every way a context can be restored.

There is one restore loop (:func:`repro.runtime.executor.drain_granules`,
called once per restore over one granule plan) and one projection kernel
(:meth:`Transformer.project_kv_chunk`); what varies is only how the loop
is parameterised — no executor (inline reads, window 1), or an IO pool
of 1, 2 or 4 workers with an in-flight window (the pool's workers plus
``RUNWAY_GRANULES``, patched here) from one read per worker up to deeper
than the whole granule plan.  Every
combination must restore bytes identical to the naive whole-layer reference
(:func:`naive_restore_cache_from_hidden`) and to each other, across
partition schemes, norm/RoPE flavors, GQA, partial tail chunks, granule
sizes (``GRANULE_CHUNKS``, patched here), layer counts and the ways a context reaches storage (one append,
unaligned blocks, one token at a time, or read back by an engine that
crash recovery rebuilt from the journal and the device chunks alone).

The engine's default scheme token-sources layer 0 (a 1-layer RECOMPUTE
prefix): every matrix cell also runs it and a 2-layer prefix, and must
restore the same bytes as the all-stored pure-hidden engine.  Every cell
restores with a progress sink attached: whichever stage fills a layer
(a projected or installed granule, or the token-sourced prefix), it is
reported exactly once, and the returned cache is the one a restore
nobody watched returns.  The last section pins *where* the token-sourced
work runs (under the drain's first window of reads) and that layer 0
never touches a device.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import LayerMethod, PartitionScheme
from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models import transformer as transformer_module
from repro.models.kv_cache import KVCache, SlabArena
from repro.models.reference import naive_restore_cache_from_hidden
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.runtime import RestoreProgress
from repro.runtime import executor as executor_module
from repro.simulator import platform_preset
from repro.storage import ManifestJournal, StorageManager
from repro.storage import manager as manager_module

CHUNK_TOKENS = 8
N_TOKENS = 125  # partial tail chunk

#: No executor at all: reads run inline at submit, window 1.
INLINE = "inline"

#: Deeper than any plan below: every granule is submitted before the
#: first one is consumed.
WHOLE_PLAN = 64

#: The loop shapes a restore drains with: INLINE, or (IO pool size —
#: None for the executor's default pool — and runway, None for the
#: default ``RUNWAY_GRANULES``).  The in-flight window is the pool size
#: plus the runway: with no runway one read per worker is outstanding (a
#: single worker serialises the reads); a whole-plan window submits every
#: granule before the first is consumed.
LOOPS = [
    INLINE,
    (1, None),
    (2, None),
    (4, None),
    (None, None),
    (1, 0),
    (4, 0),
    (1, WHOLE_PLAN - 1),
    (4, WHOLE_PLAN - 4),
]

R, H, K = LayerMethod.RECOMPUTE, LayerMethod.HIDDEN, LayerMethod.KV
SCHEMES = {
    "pure-hidden": PartitionScheme((H, H, H, H)),
    "default": None,  # the engine's own choice: (R, H, H, H)
    "recompute2+hidden": PartitionScheme((R, R, H, H)),
    "recompute+hidden+kv": PartitionScheme((R, H, H, K)),
    # A token-sourced prefix under KV reads alone: no hidden layer.
    "recompute+kv": PartitionScheme((R, K, K, K)),
    "recompute2+kv": PartitionScheme((R, R, K, K)),
    # The KV-offload baseline: every layer installs stored K|V rows.
    "pure-kv": PartitionScheme((K, K, K, K)),
}

#: How the matrix context reaches storage: the append block size, and
#: whether the restoring engine is the one that saved it or one that
#: crash recovery rebuilt from the journal and the device chunks alone.
SAVES = {
    "blocks": (37, False),
    "one-append": (N_TOKENS, False),
    "per-token": (1, False),
    "recovered": (37, True),
}

GQA_CONFIG = replace(
    model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2, n_heads=4
)


def loop_id(loop):
    if loop == INLINE:
        return INLINE
    pool, runway = loop
    name = f"pool{pool or '-default'}"
    return name if runway is None else f"{name}-window{pool + runway}"


def executor_for(loop, monkeypatch):
    """The loop's executor, with ``RUNWAY_GRANULES`` patched to its runway."""
    pool, runway = loop
    if runway is not None:
        monkeypatch.setattr(executor_module, "RUNWAY_GRANULES", runway)
    return RestoreExecutor() if pool is None else RestoreExecutor(pool)


class RecordingProgress(RestoreProgress):
    """A real sink that also lists the layers in the order they landed."""

    def __init__(self, n_layers):
        super().__init__("c", n_layers)
        self.layers = []

    def layer_landed(self, layer):
        super().layer_landed(layer)
        self.layers.append(layer)


def device_reads(engine):
    """Chunk reads issued against the engine's devices so far."""
    return sum(device.op_counts[0] for device in engine.storage.array.devices)


def restore_through(engine, context_id, loop, monkeypatch, **kwargs):
    if loop == INLINE:
        return engine.restore(context_id, **kwargs)
    with executor_for(loop, monkeypatch) as executor:
        return engine.restore(context_id, executor=executor, **kwargs)


def prefill_and_save(engine, model, context_id, tokens, seal=True, block=37):
    """Save a prefilled context in several append blocks; return the
    naive-reference cache of the same hidden states."""
    engine.register_context(context_id)
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
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


def build_case(scheme, save="blocks", open_journal=None):
    """A saved context ``"c"`` under ``scheme``, written as ``SAVES[save]``
    says, plus its oracle.  A recovered case journals through
    ``open_journal()`` and is restored by the engine recovery builds."""
    block, recovered = SAVES[save]
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    array = build_storage_array(platform_preset("default"))
    journal = open_journal() if recovered else None
    storage = StorageManager(array, tokens_per_chunk=CHUNK_TOKENS, journal=journal)
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=N_TOKENS)
    engine = HCacheEngine(model, storage, scheme=scheme)
    oracle = prefill_and_save(engine, model, "c", tokens, block=block)
    if recovered:
        # Only the devices and the journal directory survive the crash.
        journal.close()
        storage = StorageManager.recover(array, open_journal(), tokens_per_chunk=CHUNK_TOKENS)
        engine = HCacheEngine.recover(model, storage)
        assert engine.saved_tokens("c") == N_TOKENS
        assert engine.token_log("c") == tuple(tokens)
    return engine, oracle


@pytest.fixture
def open_journal(tmp_path):
    """Opens the test's journal directory; every handle closes at teardown."""
    opened = []

    def open_():
        opened.append(ManifestJournal(tmp_path / "journal"))
        return opened[-1]

    yield open_
    for journal in opened:
        journal.close()


@pytest.fixture(scope="module")
def pure_hidden_restore():
    """The all-stored engine's inline restore of the matrix context."""
    engine, _ = build_case(SCHEMES["pure-hidden"])
    return engine.restore("c")


@pytest.mark.parametrize("save", list(SAVES))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("loop", LOOPS, ids=loop_id)
def test_every_restore_shape_is_bit_exact(
    loop, scheme, save, open_journal, pure_hidden_restore, monkeypatch
):
    engine, oracle = build_case(SCHEMES[scheme], save, open_journal)
    n_layers = engine.transformer.config.n_layers
    sink = RecordingProgress(n_layers)
    reads_before = device_reads(engine)
    restored = restore_through(engine, "c", loop, monkeypatch, progress=sink)
    assert device_reads(engine) > reads_before
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
    # ... and to the same context's inline restore.
    assert restored.equals(engine.restore("c"), atol=0.0)


# ---------------------------------------------------------------------------
# model / length / granule variants, through every loop shape
# ---------------------------------------------------------------------------

#: (id, config, scheme factory, n_tokens, granule_chunks, seal)
VARIANTS = [
    *[
        (f"llama-{n}", "tiny-llama", None, n, 4, True)
        for n in (5, 64, 100, 197, 256)
    ],
    *[(f"llama-197-granule{g}", "tiny-llama", None, 197, g, True) for g in (1, 2, 8)],
    # KV granules install one at a time: a granule of one chunk
    # and one wider than the whole run.
    *[
        (f"llama-145-kv-suffix-granule{g}", "tiny-llama",
         lambda n: PartitionScheme.with_kv_suffix(n, 2), 145, g, True)
        for g in (1, 8)
    ],
    ("gqa-150-granule2", GQA_CONFIG, None, 150, 2, True),
    ("llama-97-unsealed", "tiny-llama", None, 97, 4, False),
    ("llama-145-kv-suffix", "tiny-llama", lambda n: PartitionScheme.with_kv_suffix(n, 2), 145, 4, True),
    ("llama-1", "tiny-llama", None, 1, 4, True),
    ("llama-145-pure-kv", "tiny-llama", PartitionScheme.pure_kv, 145, 4, True),
    ("gqa-150", GQA_CONFIG, None, 150, 4, True),
    # Layer 0 replayed through grouped-query attention, layer 1 projected.
    ("gqa-150-recompute2", GQA_CONFIG, lambda n: PartitionScheme.with_recompute_prefix(n, 2), 150, 4, True),
    # Packed K|V rows are 2 * kv_size wide, not 2 * hidden, under GQA.
    ("gqa-150-kv-suffix", GQA_CONFIG, lambda n: PartitionScheme.with_kv_suffix(n, 2), 150, 4, True),
    # tiny-opt: layernorm, no RoPE, 3 layers (not divisible by 2).
    ("opt-130", "tiny-opt", None, 130, 4, True),
    ("opt-130-kv-suffix", "tiny-opt", lambda n: PartitionScheme.with_kv_suffix(n, 1), 130, 4, True),
]


@pytest.mark.parametrize("variant", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("loop", LOOPS, ids=loop_id)
def test_model_length_and_granule_variants(loop, variant, monkeypatch):
    _, config, scheme_of, n_tokens, granule_chunks, seal = variant
    if isinstance(config, str):
        config = model_preset(config)
    monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", granule_chunks)
    model = Transformer.from_seed(config, seed=11)
    engine = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        scheme=scheme_of(config.n_layers) if scheme_of else None,
    )
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=n_tokens)
    oracle = prefill_and_save(engine, model, "c", tokens, seal=seal)
    sink = RecordingProgress(config.n_layers)
    restored = restore_through(engine, "c", loop, monkeypatch, progress=sink)
    assert restored.equals(oracle, atol=0.0)
    assert sorted(sink.layers) == list(range(config.n_layers))


@pytest.mark.parametrize("loop", [loop for loop in LOOPS if loop != INLINE], ids=loop_id)
def test_repeated_runs_through_one_executor_are_stable(loop, monkeypatch):
    """Shake out ordering races: repeated restores through one shared
    executor must all produce identical bytes."""
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    engine = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default")))
    )
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=197)
    oracle = prefill_and_save(engine, model, "c", tokens)
    with executor_for(loop, monkeypatch) as executor:
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
    assert engine.restore("c").equals(oracle, atol=0.0)
    # Inline, a read runs at submit: the first one precedes layer 0.
    assert events[0] == ("read", 1) and ("project", 0) in events
    assert 0 not in {layer for kind, layer in events if kind == "read"}
    # Layer 0 is projected in the stored stream's granule partition.
    per_layer = -(-N_TOKENS // engine.storage.granule_tokens)
    assert events.count(("project", 0)) == events.count(("project", 1)) == per_layer
    assert sum(kind == "read" for kind, _ in events) == per_layer * (n_layers - 1)


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the forward kernels' calls, the helper pool's hand-outs and
    the K/V caches built and arena-taken."""
    calls = Counter()

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Transformer, "layer_forward", "layer_forward")
    count(Transformer, "_forward_packed", "packed")
    count(transformer_module, "_helper_pool", "helper_pool")
    count(KVCache, "__init__", "caches_built")
    count(SlabArena, "cache", "arena_caches")
    # Two parts wherever a call can take them: a replay would use the pool.
    monkeypatch.setattr(transformer_module, "part_count", lambda rows: 2)
    return calls


@pytest.mark.parametrize("n_recompute", [2, 3, 4])
def test_a_replayed_prefix_is_one_packed_call_into_the_arena_cache(n_recompute, kernel_calls):
    """No serial replay and no throwaway cache: the packed kernel writes
    the replayed layers into the restore's own cache."""
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    scheme = PartitionScheme.with_recompute_prefix(config.n_layers, n_recompute)
    engine = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default"))), scheme=scheme
    )
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=N_TOKENS)
    oracle = prefill_and_save(engine, model, "c", tokens)
    kernel_calls.clear()
    restored = engine.restore("c")
    assert dict(kernel_calls) == {
        "packed": 1, "helper_pool": 1, "caches_built": 1, "arena_caches": 1
    }
    assert restored.equals(oracle, atol=0.0)


def test_a_one_layer_prefix_reaches_no_forward_kernel(kernel_calls):
    engine, oracle, _ = spied_default_engine()
    kernel_calls.clear()
    assert engine.restore("c").equals(oracle, atol=0.0)
    assert dict(kernel_calls) == {"caches_built": 1, "arena_caches": 1}


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
