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


def recover_stack(model, array, journal):
    manager = StorageManager.recover(array, journal)
    hcache = HCacheEngine.recover(model, manager)
    return NumericServingEngine.recover(model, hcache)


def device_reads(array):
    return sum(device.op_counts[0] for device in array.devices)


class TestKillAndResume:
    def test_hard_kill_mid_conversation(self, model, journal_factory, serve_round):
        n_layers = model.config.n_layers
        array, victim = build_stack(model, journal_factory("victim"))
        _, control = build_stack(model)
        make = prompts(model, seed=42)
        p1, p2, p3, p4 = make(40), make(30), make(54), make(25)

        # Round 1 on both stacks, identically; evict both sessions (seal).
        for engine in (victim, control):
            engine.open_session("s1")
            engine.open_session("s2")
            serve_round(engine, "s1", p1, 8)    # 48 tokens, sealed below
            serve_round(engine, "s2", p2, 18)   # 48 tokens, sealed below
            engine.evict("s1")
            engine.evict("s2")

        # Round 2 on the victim's s1 only — and no eviction: the round's
        # trailing rows live in unsealed host tail buffers when we kill.
        serve_round(victim, "s1", p3, 16)    # 118 tokens, 64 durable
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
        resumed_stream = serve_round(resumed, "s2", p4, 12)
        control_stream = serve_round(control, "s2", p4, 12)
        assert resumed_stream == control_stream

        # s1 continues from its truncated durable history.
        generated = serve_round(resumed, "s1", make(10), 6)
        assert len(generated) == 6
        assert resumed.hcache.saved_tokens("s1") == CPC + 10 + 6
        assert resumed.session("s1").tokens == s1_history[:CPC] + list(
            resumed.session("s1").tokens[CPC:]
        )

    @pytest.mark.parametrize("compacted", [False, True], ids=["log", "snapshot"])
    def test_unsealed_session_without_chunks_recovers_empty(
        self, model, journal_factory, compacted, serve_round
    ):
        """A resident session whose rows never reached a device (8+4
        tokens, never sealed) must not block recovery of an evicted one.
        Its runs are journaled at registration, so the log and the
        compacted snapshot both recover it at zero tokens."""
        n_layers = model.config.n_layers
        array, victim = build_stack(model, journal_factory("mixed"))
        _, control = build_stack(model)
        make = prompts(model, seed=31)
        p_a, p_b, p_next = make(90), make(8), make(5)
        for engine in (victim, control):
            engine.open_session("a")
            serve_round(engine, "a", p_a, 10)
            engine.evict("a")
        victim.open_session("b")
        serve_round(victim, "b", p_b, 4)
        ref_a = snapshot_prefix(victim.hcache.restore("a"), n_layers, 100)
        if compacted:
            victim.hcache.storage.compact_journal()
        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(model, array, journal_factory("mixed"))
        assert resumed.hcache.saved_tokens("a") == 100
        assert resumed.hcache.saved_tokens("b") == 0
        assert resumed.session("b").tokens == []
        assert_cache_prefix(resumed.hcache.restore("a"), ref_a, n_layers)
        assert serve_round(resumed, "a", p_next, 4) == serve_round(control, "a", p_next, 4)

    def test_clean_kill_preserves_everything(
        self, model, journal_factory, serve_rounds, serve_round
    ):
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
            serve_round(engine, "s1", p1, 10)
            serve_round(engine, "s2", p2, 5)
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
            assert serve_round(resumed, sid, p3, 9) == serve_round(control, sid, p3, 9)

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

    def test_second_crash_after_resume(self, model, journal_factory, serve_round):
        """Crash, resume, serve, crash again: the re-attached journal keeps
        journaling, so recovery composes."""
        array, victim = build_stack(model, journal_factory("twice"))
        make = prompts(model, seed=3)
        victim.open_session("s1")
        first_round = serve_round(victim, "s1", make(50), 6)
        victim.evict("s1")
        victim.hcache.storage.journal.close()
        del victim

        middle = recover_stack(model, array, journal_factory("twice"))
        assert middle.hcache.saved_tokens("s1") == 56
        serve_round(middle, "s1", make(30), 8)
        middle.evict("s1")
        history = list(middle.session("s1").tokens)
        middle.hcache.storage.journal.close()
        del middle

        final = recover_stack(model, array, journal_factory("twice"))
        assert final.hcache.saved_tokens("s1") == 94
        assert final.session("s1").tokens == history
        assert len(first_round) == 6
        generated = serve_round(final, "s1", make(5), 3)
        assert len(generated) == 3

    def test_gqa_kv_offloaded_layers_survive_a_kill(self, journal_factory, serve_round):
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
            serve_round(engine, "s", p1, 10)
            engine.evict("s")
        ref = snapshot_prefix(victim.hcache.restore("s"), config.n_layers, 80)
        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(gqa, array, journal_factory("gqa"))
        assert resumed.hcache.storage.meta("s").kv_width == 2 * config.kv_size
        assert resumed.hcache.layout("s") == scheme
        assert_cache_prefix(resumed.hcache.restore("s"), ref, config.n_layers)
        assert serve_round(resumed, "s", p2, 6) == serve_round(control, "s", p2, 6)

    def test_gqa_store_opened_by_the_mha_model_is_refused(
        self, model, journal_factory, serve_round
    ):
        """Layer count and hidden width match, but the packed K|V rows are
        ``2 * kv_size`` of the GQA model: recovery must refuse the store
        up front, not fail mid-restore after reading the devices."""
        config = replace(model.config, name="tiny-gqa", n_kv_heads=2)
        gqa = Transformer.from_seed(config, seed=11)
        scheme = PartitionScheme.with_kv_suffix(config.n_layers, 2)
        array, victim = build_stack(gqa, journal_factory("gqa"), scheme)
        victim.open_session("s")
        serve_round(victim, "s", prompts(gqa, seed=9)(60), 10)
        victim.evict("s")
        victim.hcache.storage.journal.close()
        del victim
        with pytest.raises(RecoveryError, match="packed KV width"):
            recover_stack(model, array, journal_factory("gqa"))

    def test_parent_layout_store_recovers_under_the_default_scheme(
        self, model, journal_factory, monkeypatch, serve_round
    ):
        """A context written all-stored (layer-0 rows on the devices, the
        layout every earlier version wrote) keeps that layout under a
        default engine: its layer-0 rows come back from the devices and
        keep growing, next to a new context in the default layout, and
        both survive a second crash bit-exact."""
        n_layers = model.config.n_layers
        all_stored = PartitionScheme.pure_hcache(n_layers)
        default = PartitionScheme.with_recompute_prefix(n_layers, 1)
        array, victim = build_stack(model, journal_factory("old"), all_stored)
        _, control_old = build_stack(model, scheme=all_stored)
        _, control_new = build_stack(model)
        controls = {"old": control_old, "new": control_new}
        make = prompts(model, seed=21)
        p1, p2, p3, q1, q2 = make(70), make(20), make(15), make(50), make(12)
        for engine in (victim, control_old):
            engine.open_session("old")
            serve_round(engine, "old", p1, 10)
            engine.evict("old")
        victim.hcache.storage.journal.close()
        del victim

        replayed = []
        real_replay = model.replay

        def replay(tokens, views, start=0):
            replayed.append(len(tokens))
            return real_replay(tokens, views, start)

        monkeypatch.setitem(vars(model), "replay", replay)
        resumed = recover_stack(model, array, journal_factory("old"))
        assert resumed.hcache.layout("old") == all_stored
        assert resumed.hcache.storage.tokens_stored("old", 0) == 80
        assert serve_round(resumed, "old", p2, 6) == serve_round(control_old, "old", p2, 6)
        assert replayed == []
        resumed.open_session("new")
        control_new.open_session("new")
        assert serve_round(resumed, "new", q1, 8) == serve_round(control_new, "new", q1, 8)
        assert resumed.hcache.layout("new") == default
        assert resumed.hcache.storage.tokens_stored("old", 0) == 106
        assert resumed.hcache.storage.tokens_stored("new", 0) == 0

        # Crash again after sealing both: nothing rolls back.
        for engine in (resumed, control_old, control_new):
            for sid in controls:
                if engine.has_session(sid):
                    engine.evict(sid)
        resumed.hcache.storage.journal.close()
        del resumed
        again = recover_stack(model, array, journal_factory("old"))
        replayed.clear()
        for sid, expect in (("old", 106), ("new", 58)):
            control = controls[sid]
            assert again.hcache.saved_tokens(sid) == expect
            assert again.session(sid).tokens == list(control.session(sid).tokens)
            assert again.hcache.restore(sid).equals(control.hcache.restore(sid), atol=0.0)
        assert serve_round(again, "old", p3, 4) == serve_round(control_old, "old", p3, 4)
        assert serve_round(again, "new", q2, 4) == serve_round(control_new, "new", q2, 4)
        # Every replay is a restore of the 58-token new context (its
        # layer-0 embedding gather); none of the 106-token old one.
        assert set(replayed) == {58}

    def test_an_empty_layer0_run_grows_after_adoption(self, model, journal_factory, serve_round):
        """An all-stored engine opens a layer-0 run at registration.  A
        default engine that adopts it while it is empty grows it with the
        context's rows, so the next recovery keeps every row."""
        all_stored = PartitionScheme.pure_hcache(model.config.n_layers)
        array, victim = build_stack(model, journal_factory("empty"), all_stored)
        victim.open_session("s")
        victim.hcache.storage.journal.close()
        del victim

        resumed = recover_stack(model, array, journal_factory("empty"))
        assert resumed.hcache.layout("s") == all_stored
        serve_round(resumed, "s", prompts(model, seed=23)(70), 10)
        assert resumed.hcache.storage.tokens_stored("s", 0) == 80
        resumed.evict("s")
        resumed.hcache.storage.journal.close()
        del resumed
        again = recover_stack(model, array, journal_factory("empty"))
        assert again.hcache.saved_tokens("s") == 80

    @pytest.mark.parametrize("all_stored", [False, True], ids=["default", "all-stored"])
    def test_a_kill_inside_registration_recovers_the_scheme_or_nothing(
        self, model, journal_factory, all_stored, serve_round
    ):
        """Registering a context journals one record naming every run of
        the engine's scheme.  A kill anywhere in that record's bytes
        recovers the context in that layout or not at all — never with
        some of its runs, which would be no layout or a silent recompute."""
        scheme = PartitionScheme.pure_hcache(model.config.n_layers) if all_stored else None
        journal = journal_factory("reg")
        array, victim = build_stack(model, journal, scheme)
        victim.open_session("a")
        serve_round(victim, "a", prompts(model, seed=5)(40), 24)
        victim.evict("a")
        before = journal.journal_bytes
        victim.open_session("b")
        after = journal.journal_bytes
        layout = victim.hcache.scheme
        data = journal.journal_path.read_bytes()
        journal.close()
        del victim
        for cut in sorted({before, before + 1, (before + after) // 2, after - 1, after}):
            # Recovery compacts its journal, so each cut gets its own.
            cut_dir = journal.directory.parent / f"cut{cut}"
            cut_dir.mkdir()
            (cut_dir / journal.journal_path.name).write_bytes(data[:cut])
            resumed = recover_stack(model, array, journal_factory(cut_dir.name))
            assert resumed.hcache.saved_tokens("a") == 64
            assert resumed.hcache.has_context("b") == (cut == after)
            if cut == after:
                assert resumed.hcache.layout("b") == layout
                assert resumed.hcache.saved_tokens("b") == 0
            resumed.hcache.storage.journal.close()

    @pytest.mark.parametrize(
        "runs, match",
        [
            ({(0, "hidden"), (1, "hidden"), (1, "kv"), (2, "hidden"), (3, "hidden")},
             "layer 1 holds two runs"),
            ({(0, "hidden"), (2, "hidden"), (3, "hidden")}, "no layout"),
        ],
        ids=["two-kinds-on-a-layer", "run-less-layer-after-a-stored-one"],
    )
    def test_a_store_whose_runs_are_no_layout_is_refused(
        self, model, journal_factory, runs, match
    ):
        """Runs that no partition describes are refused by the engine's
        recovery before it reads a device."""
        array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB)
        manager = StorageManager(array, journal=journal_factory("bad"))
        config = model.config
        manager.register_context(
            "s", config.n_layers, config.hidden_size, kv_width=2 * config.kv_size, runs=runs
        )
        manager.journal_tokens("s", range(70))
        rng = np.random.default_rng(4)
        for layer, kind in sorted(runs):
            width = manager.meta("s").width(kind)
            manager.append("s", layer, rng.normal(size=(70, width)), kind=kind)
        manager.seal_context("s")
        manager.journal.close()
        storage = StorageManager.recover(array, journal_factory("bad"))
        reads = device_reads(array)
        with pytest.raises(RecoveryError, match=match):
            HCacheEngine.recover(model, storage)
        assert device_reads(array) == reads
