"""Kill-and-resume: the tentpole crash-recovery test.

A numeric engine serves multi-round conversations; mid-conversation the
whole in-memory stack is dropped (engine, HCache engine, storage manager,
tail buffers — everything a process crash destroys).  Recovery rebuilds
the stack from the journal directory and the device chunks alone, every
session restores through the completely ordinary ``HCacheEngine.restore``
path, and decoding continues:

- the recovered saved-prefix KV state is **bit-exact** against the
  pre-kill state (sealed sessions entirely; unsealed sessions up to the
  durable chunk boundary);
- a recovered session's continued greedy token stream is identical to a
  control stack that never crashed.

Token streams are compared for equality outright: the restore path is
bit-exact, and the serial decode path is deterministic.  (The batched
continuation at the end runs ``ServingFrontend.submit/step`` post-recovery, whose
values sit within the pinned ``BATCHED_DECODE_ATOL`` of the serial path
as documented on the numeric engine.)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import RecoveryError
from repro.models.config import model_preset
from repro.models.transformer import Transformer
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import ManifestJournal, StorageArray, StorageManager

CPC = 64

SPEC = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
               capacity_bytes=1 * GB)


@pytest.fixture(scope="module")
def model():
    return Transformer.from_seed(model_preset("tiny-llama"), seed=11)


@pytest.fixture
def journal_factory(tmp_path):
    """Opens (and re-opens) journal directories, closing every handle at
    teardown — the tests deliberately abandon journals mid-"crash"."""
    journals = []

    def make(name="j"):
        journal = ManifestJournal(tmp_path / name)
        journals.append(journal)
        return journal

    yield make
    for journal in journals:
        journal.close()


def build_stack(model, journal=None, scheme=None):
    array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB)
    manager = StorageManager(array, journal=journal)
    engine = NumericServingEngine(model, HCacheEngine(model, manager, scheme=scheme))
    return array, engine


def prompts(model, seed):
    rng = np.random.default_rng(seed)
    return lambda n: rng.integers(0, model.config.vocab_size, size=n)


def snapshot_prefix(cache, n_layers, n_tokens):
    """Copy the first ``n_tokens`` KV rows of every layer out of a cache."""
    return {
        layer: tuple(np.array(t[:n_tokens]) for t in cache.get(layer))
        for layer in range(n_layers)
    }


def assert_cache_prefix(cache, reference, n_layers):
    for layer in range(n_layers):
        k_ref, v_ref = reference[layer]
        k, v = cache.get(layer)
        assert np.array_equal(k[: len(k_ref)], k_ref)
        assert np.array_equal(v[: len(v_ref)], v_ref)


def recover_stack(model, array, journal, scheme=None):
    manager = StorageManager.recover(array, journal)
    hcache = HCacheEngine.recover(model, manager, scheme=scheme)
    return NumericServingEngine.recover(model, hcache)


class TestKillAndResume:
    def test_hard_kill_mid_conversation(self, model, journal_factory):
        n_layers = model.config.n_layers
        array, victim = build_stack(model, journal_factory("victim"))
        _, control = build_stack(model)
        make = prompts(model, seed=42)
        p1, p2, p3, p4 = make(40), make(30), make(54), make(25)

        # Round 1 on both stacks, identically; evict both sessions (seal).
        for engine in (victim, control):
            engine.open_session("s1")
            engine.open_session("s2")
            engine.chat_round("s1", p1, 8)       # 48 tokens, sealed below
            engine.chat_round("s2", p2, 18)      # 48 tokens, sealed below
            engine.evict("s1")
            engine.evict("s2")

        # Round 2 on the victim's s1 only — and no eviction: the round's
        # trailing rows live in unsealed host tail buffers when we kill.
        victim.chat_round("s1", p3, 16)          # 118 tokens, 64 durable
        s1_history = list(victim.session("s1").tokens)
        assert len(s1_history) == 118

        # Pre-kill references for the durable prefixes.
        live_s1 = victim.session("s1").kv_cache
        ref_s1 = snapshot_prefix(live_s1, n_layers, CPC)
        ref_s2 = snapshot_prefix(victim.hcache.restore("s2"), n_layers, 48)

        # KILL: drop every in-memory structure.  The devices (the durable
        # chunk store) and the journal directory are all that survive.
        victim.hcache.storage.journal.close()
        del victim, live_s1

        resumed = recover_stack(model, array, journal_factory("victim"))

        # Durable token counts: s2 fully sealed, s1 cut at its chunk
        # boundary (the unsealed 54-row tail died with the process).
        assert resumed.hcache.saved_tokens("s2") == 48
        assert resumed.hcache.saved_tokens("s1") == CPC
        assert resumed.session("s1").tokens == s1_history[:CPC]
        assert resumed.session("s2").tokens == list(control.session("s2").tokens)

        # Saved-prefix state restores bit-exact through the normal path.
        assert_cache_prefix(resumed.hcache.restore("s1"), ref_s1, n_layers)
        assert_cache_prefix(resumed.hcache.restore("s2"), ref_s2, n_layers)

        # The recovered s2 continues exactly like the never-crashed control.
        resumed_stream = resumed.chat_round("s2", p4, 12)
        control_stream = control.chat_round("s2", p4, 12)
        assert resumed_stream == control_stream

        # s1 continues from its truncated durable history.
        generated = resumed.chat_round("s1", make(10), 6)
        assert len(generated) == 6
        assert resumed.hcache.saved_tokens("s1") == CPC + 10 + 6
        assert resumed.session("s1").tokens == s1_history[:CPC] + list(
            resumed.session("s1").tokens[CPC:]
        )

    def test_clean_kill_preserves_everything(self, model, journal_factory, serve_rounds):
        """All sessions sealed before the crash: recovery is lossless and
        both sessions' continued streams match the control exactly."""
        n_layers = model.config.n_layers
        array, victim = build_stack(model, journal_factory("clean"))
        _, control = build_stack(model)
        make = prompts(model, seed=7)
        p1, p2, p3 = make(70), make(33), make(20)

        for engine in (victim, control):
            engine.open_session("s1")
            engine.open_session("s2")
            engine.chat_round("s1", p1, 10)
            engine.chat_round("s2", p2, 5)
            engine.evict("s1")
            engine.evict("s2")
        ref = {
            sid: snapshot_prefix(
                victim.hcache.restore(sid), n_layers, victim.hcache.saved_tokens(sid)
            )
            for sid in ("s1", "s2")
        }

        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(model, array, journal_factory("clean"))
        for sid, expect in (("s1", 80), ("s2", 38)):
            assert resumed.hcache.saved_tokens(sid) == expect
            assert resumed.session(sid).tokens == list(control.session(sid).tokens)
            assert_cache_prefix(resumed.hcache.restore(sid), ref[sid], n_layers)

        for sid in ("s1", "s2"):
            assert resumed.chat_round(sid, p3, 9) == control.chat_round(sid, p3, 9)

        # And the recovered engine's *batched* round still holds together
        # (values within the documented BATCHED_DECODE_ATOL of serial).
        resumed.evict("s1")
        resumed.evict("s2")
        streams = serve_rounds(resumed, [("s1", make(12)), ("s2", make(12))], 4)
        assert set(streams) == {"s1", "s2"}
        for sid in ("s1", "s2"):
            assert len(streams[sid]) == 4
            state = resumed.session(sid)
            assert len(state.kv_cache) == len(state.tokens)
            assert resumed.hcache.saved_tokens(sid) == len(state.tokens)

    def test_second_crash_after_resume(self, model, journal_factory):
        """Crash, resume, serve, crash again: the re-attached journal keeps
        journaling, so recovery composes."""
        array, victim = build_stack(model, journal_factory("twice"))
        make = prompts(model, seed=3)
        victim.open_session("s1")
        first_round = victim.chat_round("s1", make(50), 6)
        victim.evict("s1")
        victim.hcache.storage.journal.close()
        del victim

        middle = recover_stack(model, array, journal_factory("twice"))
        assert middle.hcache.saved_tokens("s1") == 56
        middle.chat_round("s1", make(30), 8)
        middle.evict("s1")
        history = list(middle.session("s1").tokens)
        middle.hcache.storage.journal.close()
        del middle

        final = recover_stack(model, array, journal_factory("twice"))
        assert final.hcache.saved_tokens("s1") == 94
        assert final.session("s1").tokens == history
        assert len(first_round) == 6
        generated = final.chat_round("s1", make(5), 3)
        assert len(generated) == 3

    def test_gqa_kv_offloaded_layers_survive_a_kill(self, journal_factory):
        """GQA x KV offload: packed K|V rows are ``2 * kv_size`` wide, and
        that width must ride the journal's register record through
        recovery (it used to be assumed ``2 * hidden``)."""
        config = replace(model_preset("tiny-llama"), name="tiny-gqa", n_kv_heads=2)
        gqa = Transformer.from_seed(config, seed=11)
        scheme = PartitionScheme.with_kv_suffix(config.n_layers, 2)
        array, victim = build_stack(gqa, journal_factory("gqa"), scheme)
        _, control = build_stack(gqa, scheme=scheme)
        make = prompts(gqa, seed=9)
        p1, p2 = make(70), make(20)
        for engine in (victim, control):
            engine.open_session("s")
            engine.chat_round("s", p1, 10)
            engine.evict("s")
        ref = snapshot_prefix(victim.hcache.restore("s"), config.n_layers, 80)
        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(gqa, array, journal_factory("gqa"), scheme)
        assert resumed.hcache.storage.meta("s").kv_width == 2 * config.kv_size
        assert_cache_prefix(resumed.hcache.restore("s"), ref, config.n_layers)
        assert resumed.chat_round("s", p2, 6) == control.chat_round("s", p2, 6)

    def test_parent_layout_store_recovers_under_the_default_scheme(
        self, model, journal_factory
    ):
        """A store written with layer-0 rows on the devices (the all-stored
        layout every earlier version wrote) is adopted by the default
        engine: layer 0 comes back from the token log, bit-identical to
        the stored-layer-0 restore, and its stale rows are freed — left
        behind they would stop growing, and a *second* crash would roll
        the context back to them."""
        n_layers = model.config.n_layers
        all_stored = PartitionScheme.pure_hcache(n_layers)
        array, victim = build_stack(model, journal_factory("old"), all_stored)
        _, control = build_stack(model, scheme=all_stored)
        make = prompts(model, seed=21)
        p1, p2 = make(70), make(20)
        for engine in (victim, control):
            engine.open_session("s")
            engine.chat_round("s", p1, 10)
            engine.evict("s")
        assert victim.hcache.storage.tokens_stored("s", 0) == 80
        ref = snapshot_prefix(victim.hcache.restore("s"), n_layers, 80)
        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(model, array, journal_factory("old"))
        assert resumed.hcache.scheme == PartitionScheme.with_recompute_prefix(n_layers, 1)
        assert resumed.hcache.saved_tokens("s") == 80
        assert_cache_prefix(resumed.hcache.restore("s"), ref, n_layers)
        assert resumed.hcache.storage.tokens_stored("s", 0) == 0
        assert not any(key.layer == 0 for device in array.devices for key in device.keys())
        assert resumed.chat_round("s", p2, 6) == control.chat_round("s", p2, 6)

        # Crash again after a sealed post-upgrade round: nothing rolls back.
        for engine in (resumed, control):
            engine.evict("s")
        ref = snapshot_prefix(control.hcache.restore("s"), n_layers, 106)
        resumed.hcache.storage.journal.close()
        del resumed
        again = recover_stack(model, array, journal_factory("old"))
        assert again.hcache.saved_tokens("s") == 106
        assert again.session("s").tokens == list(control.session("s").tokens)
        assert_cache_prefix(again.hcache.restore("s"), ref, n_layers)

    def test_new_layout_store_opened_as_all_stored_is_refused(
        self, model, journal_factory
    ):
        """The default layout holds no layer-0 rows; claiming it was saved
        all-stored must fail recovery, not restore an empty layer."""
        array, victim = build_stack(model, journal_factory("new"))
        victim.open_session("s")
        victim.chat_round("s", prompts(model, seed=22)(70), 10)
        victim.evict("s")
        victim.hcache.storage.journal.close()
        del victim
        with pytest.raises(RecoveryError, match="layer 0"):
            recover_stack(
                model, array, journal_factory("new"),
                PartitionScheme.pure_hcache(model.config.n_layers),
            )
