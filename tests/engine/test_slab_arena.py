"""Session K/V slabs are recycled through the HCache engine's arena.

An evicted or closed session gives its cache's slab back
(:meth:`KVCache.release`), and the next restore of the same size class
takes it instead of allocating: the counts below are exact, and every
restored cache stays bit-identical to the naive reference wherever its
slab came from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, NumericServingEngine, ServingFrontend, ServingRequest
from repro.errors import StateError
from repro.models import kv_cache as kv_cache_module
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden
from repro.runtime import RestoreExecutor
from repro.storage import StorageManager

N_TOKENS = 100


@pytest.fixture
def kv_allocations(monkeypatch):
    """Shapes of every K/V slab pair allocated from here on."""
    shapes: list[tuple[int, ...]] = []
    real = kv_cache_module._slab_pair

    def counted(shape):
        shapes.append(shape)
        return real(shape)

    monkeypatch.setattr(kv_cache_module, "_slab_pair", counted)
    return shapes


def saved_engine(model, platform, histories, executor=None):
    """A numeric engine whose sessions hold these evicted histories, saved
    through the ordinary path; -> (engine, {session: naive reference})."""
    engine = NumericServingEngine(
        model,
        HCacheEngine(model, StorageManager(build_storage_array(platform))),
        executor=executor,
    )
    references = {}
    for sid, tokens in histories.items():
        capture = HiddenCapture(model.config.n_layers, model.config.hidden_size)
        capture.reserve(tokens.size)
        model.forward(tokens, KVCache(model.config), capture=capture)
        hidden = capture.block_views(0, tokens.size)
        state = engine.open_session(sid)
        engine.hcache.save_states(sid, hidden, tokens)
        engine.hcache.seal(sid)
        state.tokens.extend(int(t) for t in tokens)
        references[sid] = naive_restore_cache_from_hidden(model, hidden)
    return engine, references


def histories(config, sizes, seed=0):
    rng = np.random.default_rng(seed)
    return {f"s{i}": rng.integers(0, config.vocab_size, size=n) for i, n in enumerate(sizes)}


def restore(engine, reserve):
    engine.start_restores(reserve, background=False)
    assert sorted(engine.finished_restores()) == sorted(reserve)


class TestAllocationCounts:
    def test_a_default_restore_allocates_one_slab_cold_and_none_warm(
        self, tiny_model, default_platform, kv_allocations
    ):
        """The token-sourced layer 0 allocates no cache of its own, and
        the evicted session's slab lands the next restore."""
        engine, references = saved_engine(
            tiny_model, default_platform, histories(tiny_model.config, [N_TOKENS])
        )
        kv_allocations.clear()  # the histories' own prefills
        restore(engine, {"s0": 120})
        assert kv_allocations == [(4, 128, 4, 16)]
        engine.evict("s0")
        restore(engine, {"s0": 120})
        assert len(kv_allocations) == 1
        assert engine.session("s0").kv_cache.equals(references["s0"], atol=0.0)

    def test_closing_a_session_mid_restore_gives_its_slab_back(
        self, tiny_model, default_platform, serve_round
    ):
        """``close_session`` waits out a restore no ``finished_restores``
        has reported; the cache it restored gives its slab back, so the
        next restore allocates none."""
        executor = RestoreExecutor(1)
        try:
            engine = NumericServingEngine(
                tiny_model,
                HCacheEngine(tiny_model, StorageManager(build_storage_array(default_platform))),
                executor=executor,
            )
            prompts = histories(tiny_model.config, [N_TOKENS, N_TOKENS])
            for sid, prompt in zip("ab", prompts.values()):
                engine.open_session(sid)
                serve_round(engine, sid, prompt, 5)
                engine.evict(sid)
            allocations = engine.hcache.arena.allocations
            engine.start_restores({"a": 120}, background=True)
            engine.close_session("a")
            restore(engine, {"b": 120})
            assert engine.hcache.arena.allocations == allocations
        finally:
            executor.close()

    def test_chat_rounds_reuse_the_evicted_slab(self, tiny_model, default_platform, serve_round):
        engine, _ = saved_engine(
            tiny_model, default_platform, histories(tiny_model.config, [N_TOKENS])
        )
        prompt = np.arange(2)  # four rounds of 3 tokens: 103-112, one size class
        serve_round(engine, "s0", prompt, 1)
        engine.evict("s0")
        allocations = engine.hcache.arena.allocations
        for _ in range(3):
            serve_round(engine, "s0", prompt, 1)
            engine.evict("s0")
        assert engine.hcache.arena.allocations == allocations

    def test_an_evicted_sessions_old_cache_object_is_dead(
        self, tiny_model, default_platform
    ):
        engine, references = saved_engine(
            tiny_model, default_platform, histories(tiny_model.config, [N_TOKENS, N_TOKENS])
        )
        restore(engine, {"s0": 120})
        stale = engine.session("s0").kv_cache
        engine.evict("s0")
        restore(engine, {"s1": 120})  # lands on s0's slab
        with pytest.raises(StateError, match="gave its slab back"):
            stale.get(0)
        assert engine.session("s1").kv_cache.equals(references["s1"], atol=0.0)


class TestConcurrentRestores:
    def test_restores_take_slabs_while_the_stepping_thread_gives_them_back(
        self, tiny_model, default_platform
    ):
        """Four restores on two IO workers, in the background, while the
        calling thread evicts four resident sessions: every cache is the
        naive reference, bit for bit, whichever slab it landed on."""
        sizes = [N_TOKENS - 3 * i for i in range(8)]
        executor = RestoreExecutor(2)
        try:
            engine, references = saved_engine(
                tiny_model,
                default_platform,
                histories(tiny_model.config, sizes, seed=5),
                executor=executor,
            )
            resident, evicted = [f"s{i}" for i in range(4)], [f"s{i}" for i in range(4, 8)]
            restore(engine, dict.fromkeys(resident, 120))
            for _ in range(3):
                engine.start_restores(dict.fromkeys(evicted, 120), background=True)
                for sid in resident:
                    engine.evict(sid)
                released: list[str] = []
                while len(released) < len(evicted):
                    engine.wait_for_restores()
                    released += engine.finished_restores()
                for sid in evicted:
                    assert engine.session(sid).kv_cache.equals(references[sid], atol=0.0), sid
                resident, evicted = evicted, resident
            assert engine.hcache.arena.allocations <= 8
        finally:
            executor.close()


class TestFrontend:
    def test_evict_restore_rounds_leave_the_slab_count_flat(
        self, tiny_model, default_platform
    ):
        engine, _ = saved_engine(
            tiny_model, default_platform, histories(tiny_model.config, [N_TOKENS] * 3, seed=9)
        )
        frontend = ServingFrontend(
            engine, MemoryBudget(capacity_tokens=4096), evict_on_finish=True
        )
        counts = []
        for round_index in range(4):
            handles = [
                frontend.submit(
                    ServingRequest(
                        session_id=f"s{i}", prompt_tokens=np.arange(4) + round_index,
                        max_new_tokens=2,
                    )
                )
                for i in range(3)
            ]
            frontend.run_until_idle(max_steps=200)
            assert all(len(h.result().tokens) == 2 for h in handles)
            assert engine.gpu_resident_sessions() == ()
            counts.append(engine.hcache.arena.allocations)
        assert counts == [counts[0]] * 4
