"""The numeric restore follows the walk (§4.1, Fig. 7).

:func:`~repro.core.restoration.two_stream_timing` ("the walk") prices
every restore as one IO stream and one compute stream.  The engine gets
there with one drain over one granule plan, the hidden and KV granules
merged in proportion (:func:`~repro.core.hcache.merge_granule_plans`).

The twin below runs the real :meth:`HCacheEngine.restore` and
:func:`~repro.runtime.executor.drain_granules` through a
:class:`RestoreExecutor` on a fake one-worker pool with a virtual clock:

- a read runs at submit, so the restored bytes are real, and lands at
  ``max(IO free, now)`` plus its modelled seconds;
- ``future.result()`` advances the clock to the landing time;
- ``project_kv_chunk`` and each row chunk of the prefix replay
  (:meth:`Transformer.replay`) are charged their profiled seconds,
  prorated by rows; KV installs cost nothing.

Nothing reads a wall clock, so the makespan is a count-like figure that
host noise cannot blur: a restore that stops following the walk fails
here by name.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import hcache as hcache_module
from repro.core.hcache import HCacheEngine, merge_granule_plans
from repro.core.partition import LayerMethod, PartitionScheme
from repro.core.profiler import HardwareProfile, build_storage_array
from repro.core.restoration import two_stream_timing
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.simulator import platform_preset
from repro.storage import StorageManager
from repro.storage.manager import GRANULE_CHUNKS, GranuleSpec

N_LAYERS = 12
CHUNK_TOKENS = 8
#: Four granules per layer.
N_TOKENS = 4 * GRANULE_CHUNKS * CHUNK_TOKENS

#: Bench-mid (12 layers, hidden 512) at 1 024 tokens with one BLAS
#: thread: one layer's projection, full-layer replay, and hidden / KV
#: read at 0.1, 0.3 and 1 GB/s, in seconds; 3 GB/s is the 1 GB/s IO ÷ 3.
C_H, C_TOKEN = 10.5e-3, 96e-3
PROFILES = {
    f"{gbps}GBps": HardwareProfile("bench-mid", 1024, io_h, io_kv, C_H, C_TOKEN)
    for gbps, io_h, io_kv in (
        (0.1, 21.3e-3, 42.3e-3),
        (0.3, 7.3e-3, 14.3e-3),
        (1, 2.4e-3, 4.5e-3),
        (3, 2.4e-3 / 3, 4.5e-3 / 3),
    )
}

#: How far the engine may trail the walk: the granule-level pipeline
#: fills and drains a little differently from the walk's layer-level one.
WALK_SLACK = 1.15

#: Cells held to a ceiling of their own in place of WALK_SLACK.  At
#: 0.1 GB/s one of an r >= 2 prefix's two replay chunks outlasts the reads
#: in flight, and the read stream idles behind it; at 3 GB/s the r = 1
#: prefix's projections, at the head of the plan, outlast them (ROADMAP
#: item 15(b)).
CEILINGS = {
    ("10 H + 2 RE", "0.1GBps"): 1.17,
    ("6 H + 4 KV + 2 RE", "0.1GBps"): 1.05,
    ("9 H + 3 RE", "0.1GBps"): 1.15,
    ("5 H + 4 KV + 3 RE", "0.1GBps"): 1.40,
    ("1 H + 10 KV + 1 RE", "3GBps"): 1.19,
    ("0 H + 11 KV + 1 RE", "3GBps"): 1.48,
}

R, H, K = LayerMethod.RECOMPUTE, LayerMethod.HIDDEN, LayerMethod.KV

#: Every scheme with a recompute prefix of r <= 1 and any KV suffix; r = 2
#: and 3 with no KV suffix and a 4-layer one; and pure recompute: an
#: 11-layer replay and one projection, no read.
SCHEMES = [
    PartitionScheme((R,) * r + (H,) * (N_LAYERS - r - k) + (K,) * k)
    for r, suffixes in ((0, range(N_LAYERS + 1)), (1, range(N_LAYERS)), (2, (0, 4)), (3, (0, 4)))
    for k in suffixes
] + [PartitionScheme.with_recompute_prefix(N_LAYERS, N_LAYERS)]


class VirtualClock:
    def __init__(self):
        self.now = 0.0
        self.io_free = 0.0


class Landing:
    """A read's future: ``result()`` waits, on the virtual clock, for it."""

    def __init__(self, clock, at):
        self._clock, self._at = clock, at

    def result(self):
        self._clock.now = max(self._clock.now, self._at)

    def cancel(self):
        return False


class VirtualIOPool:
    """One IO worker on a virtual clock: each read runs at submit and
    lands once the serial IO stream has carried it."""

    size = 1

    def __init__(self, clock, profile):
        self._clock = clock
        self._seconds = {"hidden": profile.io_hidden, "kv": profile.io_kv}

    def submit(self, fn, /, *args):
        fn(*args)
        spec = args[1]
        clock = self._clock
        clock.io_free = max(clock.io_free, clock.now) + (
            self._seconds[spec.kind] * spec.n_tokens / N_TOKENS
        )
        return Landing(clock, clock.io_free)


def charged(model, clock, profile):
    """Charge ``model``'s restore compute to ``clock`` at the profile's
    per-layer seconds, prorated by rows.  Returns ``(layers, rows)`` of
    every replay charged, so a test can see the replay was."""
    project, replay_layers = model.project_kv_chunk, model.replay
    replayed = []

    def project_kv_chunk(layer, rows, *args):
        project(layer, rows, *args)
        clock.now += profile.compute_hidden * rows.shape[0] / N_TOKENS

    def replay(tokens, views, start=0):
        replayed.append((len(views), len(tokens)))
        clock.now += profile.compute_token * len(views) * len(tokens) / N_TOKENS
        return replay_layers(tokens, views, start)

    model.project_kv_chunk, model.replay = project_kv_chunk, replay
    return replayed


@pytest.fixture(scope="module")
def prefilled():
    config = replace(model_preset("tiny-llama"), n_layers=N_LAYERS)
    model = Transformer.from_seed(config, seed=11)
    tokens = np.random.default_rng(5).integers(0, config.vocab_size, size=N_TOKENS)
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
    return config, tokens, result.hidden_states, cache


def saved_engine(prefilled, scheme):
    """An engine of ``scheme`` holding the prefilled context ``"c"``."""
    config, tokens, hidden, cache = prefilled
    model = Transformer.from_seed(config, seed=11)
    storage = StorageManager(
        build_storage_array(platform_preset("default")), tokens_per_chunk=CHUNK_TOKENS
    )
    engine = HCacheEngine(model, storage, scheme=scheme)
    engine.register_context("c")
    engine.save_states("c", hidden, tokens, kv_cache=cache)
    engine.seal("c")
    return engine


@pytest.fixture
def drain_calls(monkeypatch):
    """Counts the engine's calls of the drain."""
    calls = []
    real = hcache_module.drain_granules

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(hcache_module, "drain_granules", counted)
    return calls


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("scheme", SCHEMES, ids=PartitionScheme.describe)
def test_the_restore_follows_the_walk(scheme, profile_name, prefilled, drain_calls):
    profile = PROFILES[profile_name]
    engine = saved_engine(prefilled, scheme)
    assert engine.storage.granule_tokens * 4 == N_TOKENS
    clock = VirtualClock()
    replayed = charged(engine.transformer, clock, profile)
    with RestoreExecutor(VirtualIOPool(clock, profile)) as executor:
        restored = engine.restore("c", executor=executor)
    assert restored.equals(prefilled[3], atol=0.0)
    assert len(drain_calls) == 1
    # The wrapper sits on the entry the restore calls: no replay is free.
    # Every token is replayed once through the r - 1 layers (r = 1: the
    # embedding gather); an r >= 2 replay runs in two row chunks.
    chunks = 2 if scheme.n_recompute > 1 else 1
    assert replayed == (
        [(scheme.n_recompute - 1, N_TOKENS // chunks)] * chunks if scheme.n_recompute else []
    )
    walk = two_stream_timing(scheme, profile).makespan
    ceiling = CEILINGS.get((scheme.describe(), profile_name), WALK_SLACK)
    assert clock.now <= ceiling * walk, (clock.now, walk)


@pytest.mark.parametrize(
    "scheme",
    [
        PartitionScheme.with_recompute_prefix(N_LAYERS, N_LAYERS),
        None,
        PartitionScheme.pure_kv(N_LAYERS),
        PartitionScheme((R, R) + (H,) * 6 + (K,) * 4),
    ],
    ids=["pure-recompute", "default", "pure-kv", "recompute2+hidden+kv"],
)
def test_every_restore_is_one_drain(scheme, prefilled, drain_calls):
    engine = saved_engine(prefilled, scheme)
    assert engine.restore("c").equals(prefilled[3], atol=0.0)
    assert len(drain_calls) == 1
    scheme = engine.scheme
    granules = [item for item in drain_calls[0] if isinstance(item, GranuleSpec)]
    assert len(granules) == 4 * (scheme.n_hidden + scheme.n_kv)
    # The rest is read-free: two replay chunks for r >= 2, then one
    # projection per granule of layer r - 1.
    chunks = 2 if scheme.n_recompute > 1 else 0
    assert len(drain_calls[0]) - len(granules) == (chunks + 4 if scheme.n_recompute else 0)


def test_the_default_layer0_lands_first_under_a_full_window(prefilled):
    """The default layout's layer 0 is projected before any stored layer,
    with ``inflight`` reads already out: the head of the plan, where the
    token-sourced projection hides under the IO stream."""
    engine = saved_engine(prefilled, None)
    clock, log = VirtualClock(), []
    pool = VirtualIOPool(clock, PROFILES["0.1GBps"])
    submit, project = pool.submit, engine.transformer.project_kv_chunk

    def logged_submit(fn, /, *args):
        log.append(("read", args[1].layer))
        return submit(fn, *args)

    def logged_project(layer, *args):
        log.append(("project", layer))
        return project(layer, *args)

    pool.submit, engine.transformer.project_kv_chunk = logged_submit, logged_project
    with RestoreExecutor(pool) as executor:
        assert engine.restore("c", executor=executor).equals(prefilled[3], atol=0.0)
    projected = [layer for event, layer in log if event == "project"]
    assert projected[:4] == [0] * 4 and 0 not in projected[4:]
    assert [event for event, _ in log[: executor.inflight + 4]] == (
        ["read"] * executor.inflight + ["project"] * 4
    )


def plan_of(kind, n_layers, per_layer):
    return [
        GranuleSpec(layer, kind, start, start + 1)
        for layer in range(n_layers)
        for start in range(per_layer)
    ]


def test_the_merge_keeps_each_kind_in_order_and_in_proportion():
    for n_hidden in range(7):
        for n_kv in range(7):
            hidden, kv = plan_of("hidden", n_hidden, 3), plan_of("kv", n_kv, 2)
            merged = merge_granule_plans(hidden, kv)
            assert [spec for spec in merged if spec.kind == "hidden"] == hidden
            assert [spec for spec in merged if spec.kind == "kv"] == kv
            total = len(merged)
            for prefix in range(total + 1):
                for run in (hidden, kv):
                    count = sum(spec in run for spec in merged[:prefix])
                    # Within one granule of the run's share, prefix * len(run) / total.
                    assert abs(count * total - prefix * len(run)) <= total, (n_hidden, n_kv)


def test_the_merge_gives_hidden_the_tie():
    hidden, kv = plan_of("hidden", 1, 2), plan_of("kv", 1, 2)
    assert [spec.kind for spec in merge_granule_plans(hidden, kv)] == [
        "hidden", "kv", "hidden", "kv"
    ]
