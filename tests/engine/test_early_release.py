"""A restoring session joins the iteration while its last layers land.

The engine may report a session whose restore is still streaming
(``finished_restores``); the packed kernel then waits per layer for that
session's history.  These tests pin the *order* (prefill starts before
the last granule, layer L is appended after layer L landed, the first
token needs no idle step), the *values* (streams and stored states equal
rounds served one at a time without it wherever early release really
happens),
and the *failure path* (a restore dying under a waiting iteration).

No test here depends on the wall clock for its schedule: reads are held
by events or slowed by latency emulation, and :class:`EagerEngine` pins
the measured prefill term of the release rule.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.engine import (
    MemoryBudget,
    NumericServingEngine,
    ServingFrontend,
    ServingRequest,
    SplitFuseScheduler,
)
from repro.errors import DeviceFault, RestorationError
from repro.models import transformer as transformer_module
from repro.models.transformer import BATCHED_DECODE_ATOL
from repro.runtime import RestoreExecutor
from repro.runtime.progress import RestoreProgress
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import FaultPolicy, StorageArray, StorageManager
from repro.storage import device as device_module

JOIN_S = 20.0

#: Every two-token chunk takes 2 ms of emulated device time to read and
#: nothing to write: a restore is certainly still streaming when its
#: first layer (the token-sourced one, which needs no read) has landed.
SLOW_READS = SSDSpec("slow-reads", read_bandwidth=2.5e5, write_bandwidth=100 * GB, io_latency=0.0)
SLOW_CHUNK_TOKENS = 2  # rows short of a chunk stay host-buffered: keep chunks tiny
FAST = SSDSpec("fast", read_bandwidth=100 * GB, write_bandwidth=100 * GB, io_latency=0.0)


class EagerEngine(NumericServingEngine):
    """Reports every restore at its first landed layer — and waits for it.

    Pins one measured term of the release rule (the last prefill-carrying
    iteration's time) to an hour, so a restore is releasable as soon as
    it has a pace at all, and blocks until every in-flight restore is.
    The schedule is then the synchronous one (a restore settles in the
    step that starts it) while the restores themselves still stream: the
    most gating any schedule can produce, with no wall clock in it.
    """

    def finished_restores(self):
        self._prefill_s = 3600.0
        with self._restore_changed:
            while len(self._releasable()) < len(self._restoring):
                assert self._restore_changed.wait(JOIN_S), "a restore never moved"
        return super().finished_restores()


@pytest.fixture
def fine_sleeps(monkeypatch):
    """Emulated device debt sleeps off in 0.2 ms quanta, not 1 ms."""
    monkeypatch.setattr(device_module, "SLEEP_QUANTUM_S", 2e-4)


def build(model, spec, *, eager, emulate=False, replication=1, workers=1, chunk_tokens=64):
    """-> (engine, executor, array); ``eager`` engines restore on an executor.
    ``emulate`` sleeps the device's modelled seconds (see ``fine_sleeps``)."""
    array = StorageArray([spec] * replication, link_bandwidth=100 * GB, replication=replication)
    if emulate:
        array.emulate_latency()
        chunk_tokens = SLOW_CHUNK_TOKENS
    hcache = HCacheEngine(model, StorageManager(array, tokens_per_chunk=chunk_tokens))
    if not eager:
        return NumericServingEngine(model, hcache), None, array
    executor = RestoreExecutor(workers)
    return EagerEngine(model, hcache, executor=executor), executor, array


def tokens_of(config, rng, n):
    return rng.integers(0, config.vocab_size, size=n)


# ---------------------------------------------------------------------------
# order: event-controlled granule reads, no clock
# ---------------------------------------------------------------------------


def hold_last_layer_reads(storage, last, gate, log):
    real = storage.read_granule_into

    def read_granule_into(context_id, spec, out):
        if spec.layer == last:
            assert gate.wait(JOIN_S), "the last layer's reads were never released"
        result = real(context_id, spec, out)
        log.append(("read", spec.layer))
        return result

    storage.read_granule_into = read_granule_into


def log_progress(monkeypatch, log, last, waiting_on_last):
    real_landed, real_wait = RestoreProgress.layer_landed, RestoreProgress.wait_layer

    def layer_landed(self, layer):
        real_landed(self, layer)
        log.append(("landed", layer))

    def wait_layer(self, layer):
        log.append(("reached", layer))  # the packed kernel is at this layer
        if layer == last:
            waiting_on_last.set()
        real_wait(self, layer)
        log.append(("append", layer))  # the kernel appends right after this returns

    monkeypatch.setattr(RestoreProgress, "layer_landed", layer_landed)
    monkeypatch.setattr(RestoreProgress, "wait_layer", wait_layer)


def test_prefill_starts_before_the_last_granule_and_appends_behind_each_landed_layer(
    tiny_model, tiny_config, monkeypatch, serve_round
):
    rng = np.random.default_rng(71)
    history, prompt = tokens_of(tiny_config, rng, 40), tokens_of(tiny_config, rng, 6)
    serial, _, _ = build(tiny_model, FAST, eager=False)
    serial.open_session("r")
    serve_round(serial, "r", history, 3)
    expected = serve_round(serial, "r", prompt, 4)

    engine, executor, _ = build(tiny_model, FAST, eager=True)
    last = tiny_config.n_layers - 1
    log, gate, waiting_on_last = [], threading.Event(), threading.Event()
    try:
        engine.open_session("r")
        serve_round(engine, "r", history, 3)
        engine.evict("r")
        hold_last_layer_reads(engine.hcache.storage, last, gate, log)
        log_progress(monkeypatch, log, last, waiting_on_last)

        def open_the_gate_once_the_iteration_waits():
            if waiting_on_last.wait(JOIN_S):
                gate.set()

        opener = threading.Thread(target=open_the_gate_once_the_iteration_waits)
        opener.start()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handle = frontend.submit(
            ServingRequest(session_id="r", prompt_tokens=prompt, max_new_tokens=4)
        )
        first = frontend.step()
        opener.join(JOIN_S)
        assert not opener.is_alive() and gate.is_set()

        # One step started the restore, was handed the session while its
        # last layer was still on the device, and emitted the first token.
        assert first.restores_started == first.restores_completed == ("r/r0",)
        assert first.prefill_chunks == (("r/r0", prompt.size),) and first.model_calls == 1
        assert len(handle.tokens()) == 1 and engine.early_releases == 1
        # The iteration was in the model before the last layer's granule was read ...
        assert log.index(("reached", 0)) < log.index(("read", last))
        # ... and each layer's prompt rows went in behind its landed history.
        for layer in range(tiny_config.n_layers):
            assert log.index(("landed", layer)) < log.index(("append", layer))
        assert log.index(("read", last)) < log.index(("append", last))

        frontend.run_until_idle(max_steps=50)
        assert list(handle.result().tokens) == expected
        assert engine.session("r").tokens == serial.session("r").tokens
        assert engine.session("r").kv_cache.landing is None
    finally:
        gate.set()
        executor.close()


# ---------------------------------------------------------------------------
# values: streams and stored states where early release really happens
# ---------------------------------------------------------------------------


def serial_streams(model, plans, serve_round):
    serial, _, _ = build(model, FAST, eager=False)
    streams = {}
    for session, rounds in plans.items():
        serial.open_session(session)
        streams[session] = [serve_round(serial, session, p, n) for p, n in rounds]
    return serial, streams


def assert_same_stored_states(config, engine, replay, serial, sessions):
    for s in sessions:
        assert engine.hcache.token_log(s) == serial.hcache.token_log(s)
        for layer in range(1, config.n_layers):
            stored = engine.hcache.storage.load_layer(s, layer)
            # One schedule stores one set of bytes, however the restores'
            # threads interleaved with the iterations.
            assert np.array_equal(stored, replay.hcache.storage.load_layer(s, layer))
            np.testing.assert_allclose(
                stored, serial.hcache.storage.load_layer(s, layer),
                atol=BATCHED_DECODE_ATOL, rtol=0,
            )


def test_scripted_waves_stream_like_the_serial_loop_under_early_release(
    tiny_model, tiny_config, fine_sleeps, serve_round
):
    """``test_one_loop``'s script — a cohort above ``max_running``, a
    prompt above the SplitFuse budget, an SLO jump, second rounds after
    eviction, chained rounds — with every restore reported early."""
    waves = [
        [(0, 5, 3, None), (1, 21, 2, None), (2, 6, 1, 0.5), (3, 4, 4, None)],
        [(0, 3, 2, None), (1, 9, 3, None), (1, 2, 2, None), (4, 7, 2, None)],
    ]
    rng = np.random.default_rng(0)
    script = [
        [(f"s{s}", tokens_of(tiny_config, rng, p), n, slo) for s, p, n, slo in wave]
        for wave in waves
    ]
    plans = {}
    for wave in script:
        for session, prompt, n_out, _ in wave:
            plans.setdefault(session, []).append((prompt, n_out))
    serial, expected = serial_streams(tiny_model, plans, serve_round)

    def served():
        engine, executor, _ = build(tiny_model, SLOW_READS, eager=True, emulate=True)
        frontend = ServingFrontend(
            engine,
            MemoryBudget(capacity_tokens=4096),
            scheduler=SplitFuseScheduler(8),
            max_running=3,
            evict_on_finish=True,
        )
        streams = {}
        try:
            for wave in script:
                handles = [
                    (session, frontend.submit(
                        ServingRequest(
                            session_id=session, prompt_tokens=prompt,
                            max_new_tokens=n_out, slo_ttft_s=slo,
                        )
                    ))
                    for session, prompt, n_out, slo in wave
                ]
                frontend.run_until_idle(max_steps=2000)
                for session, handle in handles:
                    streams.setdefault(session, []).append(list(handle.result().tokens))
        finally:
            executor.close()
        return engine, streams

    engine, streams = served()
    replay, replay_streams = served()
    assert streams == expected and replay_streams == expected
    # s0 and s1 come back from storage in the second wave.
    assert engine.early_releases >= 1 and replay.early_releases >= 1
    assert_same_stored_states(tiny_config, engine, replay, serial, plans)


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    sessions=st.lists(
        st.tuples(
            st.integers(0, 6),  # steps before round 1 is submitted
            st.integers(1, 12),  # round-1 prompt length
            st.integers(1, 5),  # round-1 output length
            st.booleans(),  # evict between the rounds
            st.integers(0, 4),  # steps between the rounds
            st.integers(1, 8),  # round-2 prompt length
            st.integers(1, 5),  # round-2 output length
        ),
        min_size=2,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
def test_property_random_churn_matches_serial_under_early_release(
    tiny_model, tiny_config, fine_sleeps, sessions, seed, serve_round
):
    """``test_property_random_churn_matches_serial``'s join / leave /
    evict / restore schedules, restores on an executor over a slow
    device: the first session always comes back from storage, early."""
    rng = np.random.default_rng(seed)
    plans, waits, evicts = {}, {}, {}
    for i, (wait1, p1, n1, evict, wait2, p2, n2) in enumerate(sessions):
        s = f"s{i}"
        plans[s] = [(tokens_of(tiny_config, rng, p1), n1), (tokens_of(tiny_config, rng, p2), n2)]
        waits[s], evicts[s] = [wait1, wait2], evict or i == 0

    def churned():
        engine, executor, _ = build(tiny_model, SLOW_READS, eager=True, emulate=True)
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=1 << 20))
        left = {s: list(w) for s, w in waits.items()}
        handles = {s: [] for s in plans}
        try:
            for _ in range(400):
                for s, rounds in plans.items():
                    done = len(handles[s])
                    if done == len(rounds) or (done and not handles[s][-1].finished):
                        continue
                    if left[s][done]:
                        left[s][done] -= 1
                        continue
                    if done and evicts[s] and engine.session(s).on_gpu:
                        engine.evict(s)
                    prompt, n_out = rounds[done]
                    handles[s].append(
                        frontend.submit(
                            ServingRequest(session_id=s, prompt_tokens=prompt, max_new_tokens=n_out)
                        )
                    )
                frontend.step()
                if all(len(h) == 2 and h[-1].finished for h in handles.values()):
                    break
        finally:
            executor.close()
        return engine, {s: [list(h.result().tokens) for h in hs] for s, hs in handles.items()}

    serial, expected = serial_streams(tiny_model, plans, serve_round)
    engine, streams = churned()
    replay, replay_streams = churned()
    assert streams == expected and replay_streams == expected
    assert engine.early_releases >= 1 and replay.early_releases >= 1
    assert_same_stored_states(tiny_config, engine, replay, serial, plans)


def test_the_measured_rule_releases_only_a_restore_the_prefill_cannot_outrun(
    tiny_model, tiny_config, serve_round
):
    """The real engine, nothing pinned: with no prefill-carrying iteration
    measured yet nothing is released before it has ended; once one has
    been, a restore is released exactly when its predicted remainder fits
    in it.  The history is built by another engine on the same HCache
    engine, so the engine under test has measured no iteration."""
    rng = np.random.default_rng(72)
    array = StorageArray([FAST], link_bandwidth=100 * GB)
    hcache = HCacheEngine(tiny_model, StorageManager(array))
    builder = NumericServingEngine(tiny_model, hcache)
    builder.open_session("r")
    serve_round(builder, "r", tokens_of(tiny_config, rng, 30), 2)
    builder.evict("r")
    with RestoreExecutor(1) as executor:
        engine = NumericServingEngine.recover(tiny_model, hcache, executor=executor)
        gate, log = threading.Event(), []
        hold_last_layer_reads(hcache.storage, tiny_config.n_layers - 1, gate, log)
        try:
            engine.start_restores({"r": 64}, background=True)
            progress = engine._restoring["r"]
            for layer in range(tiny_config.n_layers - 1):
                progress.wait_layer(layer)
            # Three of four layers are in, the last is held on the device:
            # some remainder is predicted, and no measured prefill covers it.
            assert 0.0 < progress.remaining_s() < float("inf")
            assert engine.finished_restores() == [] and engine.early_releases == 0
            # A measured prefill that long does.
            engine._prefill_s = 3600.0
            assert engine.finished_restores() == ["r"] and engine.early_releases == 1
            assert engine.session("r").kv_cache.landing is progress
        finally:
            gate.set()
        engine.evict("r")  # waits the restore out before sealing
        assert engine.session("r").kv_cache is None and not engine._restoring
        assert hcache.restore("r").equals(hcache.restore("r", executor=executor))


def test_the_rule_looks_one_model_call_ahead(tiny_model, tiny_config, serve_round):
    """A restore whose remainder exceeds the measured prefill is released
    when it fits in the prefill plus the last model call — the next
    decision is one call away — and held when it exceeds both.  Every
    call sets the second term, a decode-only one too; only a
    prefill-carrying call sets the first."""
    rng = np.random.default_rng(75)
    array = StorageArray([FAST], link_bandwidth=100 * GB)
    hcache = HCacheEngine(tiny_model, StorageManager(array))
    builder = NumericServingEngine(tiny_model, hcache)
    builder.open_session("r")
    serve_round(builder, "r", tokens_of(tiny_config, rng, 30), 2)
    builder.evict("r")
    with RestoreExecutor(1) as executor:
        engine = NumericServingEngine.recover(tiny_model, hcache, executor=executor)
        engine.open_session("d")
        engine.execute_iteration([("d", tokens_of(tiny_config, rng, 5))])
        assert engine._call_s == engine._prefill_s > 0.0
        prefill_s, engine._call_s = engine._prefill_s, 0.0
        engine.execute_iteration(decode_tokens={"d": 1})
        assert engine._call_s > 0.0 and engine._prefill_s == prefill_s
        gate, log = threading.Event(), []
        hold_last_layer_reads(hcache.storage, tiny_config.n_layers - 1, gate, log)
        try:
            engine.start_restores({"r": 64}, background=True)
            progress = engine._restoring["r"]
            for layer in range(tiny_config.n_layers - 1):
                progress.wait_layer(layer)
            # The last layer is held, so the predicted remainder only grows:
            # two terms of a quarter of it now stay below it at any later check.
            remaining = progress.remaining_s()
            assert 0.0 < remaining < float("inf")
            engine._prefill_s = engine._call_s = remaining / 4
            assert engine.finished_restores() == [] and engine.early_releases == 0
            # Beyond the prefill alone, inside the prefill plus the next call.
            engine._call_s = 3600.0
            assert progress.remaining_s() > engine._prefill_s
            assert engine.finished_restores() == ["r"] and engine.early_releases == 1
            assert engine.session("r").kv_cache.landing is progress
        finally:
            gate.set()
        engine.evict("r")
        assert engine.session("r").kv_cache is None and not engine._restoring


def test_closing_a_session_whose_restore_fails_discards_the_failure(
    tiny_model, tiny_config, serve_round
):
    """A session released while its restore streams, whose restore then
    fails on its last layer's read, closes at the first call, as does one
    whose failed restore was never reported: the failure is discarded with
    the session, and its storage goes."""
    rng = np.random.default_rng(76)
    hcache = HCacheEngine(tiny_model, StorageManager(StorageArray([FAST], link_bandwidth=100 * GB)))
    builder = NumericServingEngine(tiny_model, hcache)
    for sid in ("released", "unreported"):
        builder.open_session(sid)
        serve_round(builder, sid, tokens_of(tiny_config, rng, 30), 2)
        builder.evict(sid)
    last, gate = tiny_config.n_layers - 1, threading.Event()
    real_read = hcache.storage.read_granule_into

    def failing_read(context_id, spec, out):
        if spec.layer == last:
            assert gate.wait(JOIN_S), "the last layer's reads were never released"
            raise DeviceFault(f"injected layer-{last} read fault")
        return real_read(context_id, spec, out)

    hcache.storage.read_granule_into = failing_read
    with RestoreExecutor(1) as executor:
        engine = NumericServingEngine.recover(tiny_model, hcache, executor=executor)
        try:
            engine.start_restores({"released": 64}, background=True)
            progress = engine._restoring["released"]
            for layer in range(last):
                progress.wait_layer(layer)
            engine._prefill_s = 3600.0
            assert engine.finished_restores() == ["released"] and engine.early_releases == 1
            engine.start_restores({"unreported": 64}, background=True)
        finally:
            gate.set()
        for sid in ("released", "unreported"):
            engine.close_session(sid)
            assert not engine.has_session(sid) and not hcache.has_context(sid)
        assert not engine._restoring


# ---------------------------------------------------------------------------
# failure: every replica of a chunk dies while the gated iteration waits
# ---------------------------------------------------------------------------


def test_a_restore_dying_under_a_waiting_iteration_raises_once_and_spares_the_batch(
    tiny_model, tiny_config, monkeypatch, serve_round
):
    rng = np.random.default_rng(73)
    history, prompt = tokens_of(tiny_config, rng, 40), tokens_of(tiny_config, rng, 6)
    others = {s: tokens_of(tiny_config, rng, 9) for s in "ab"}
    serial, _, _ = build(tiny_model, FAST, eager=False)
    expected = {}
    for s, p in others.items():
        serial.open_session(s)
        expected[s] = serve_round(serial, s, p, 6)

    # 8-token chunks: the 43-token history is on the devices, not in a host tail.
    engine, executor, array = build(
        tiny_model, FAST, eager=True, replication=2, workers=2, chunk_tokens=8
    )
    last = tiny_config.n_layers - 1
    log, gate, waiting_on_last = [], threading.Event(), threading.Event()
    try:
        engine.open_session("r")
        serve_round(engine, "r", history, 3)
        engine.evict("r")
        healthy = engine.hcache.restore("r")
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handles = {
            s: frontend.submit(ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=6))
            for s, p in others.items()
        }
        for _ in range(3):
            frontend.step()  # a and b are decoding, two tokens in
        before = {
            s: [tuple(np.array(x) for x in engine.session(s).kv_cache.get(layer))
                for layer in range(tiny_config.n_layers)]
            for s in others
        }
        hold_last_layer_reads(engine.hcache.storage, last, gate, log)
        log_progress(monkeypatch, log, last, waiting_on_last)

        def kill_every_replica_once_the_iteration_waits():
            if waiting_on_last.wait(JOIN_S):
                for slot in range(len(array)):
                    for role in ("primary", "mirror"):
                        array.replica(slot, role).fault_policy = FaultPolicy.dead()
                gate.set()

        killer = threading.Thread(target=kill_every_replica_once_the_iteration_waits)
        killer.start()
        doomed = frontend.submit(
            ServingRequest(session_id="r", prompt_tokens=prompt, max_new_tokens=4)
        )
        with pytest.raises(RestorationError, match="outstanding") as raised:
            frontend.step()
        killer.join(JOIN_S)
        assert not killer.is_alive()
        assert isinstance(raised.value.__cause__, DeviceFault)
        assert engine.early_releases == 1 and ("append", last) not in log

        # The failed session is evicted again; nobody else lost a row.
        assert engine.session("r").kv_cache is None and not engine._restoring
        for s, rows in before.items():
            cache = engine.session(s).kv_cache
            assert len(cache) == len(engine.session(s).tokens) == rows[0][0].shape[0]
            for layer, (keys, values) in enumerate(rows):
                assert np.array_equal(cache.get(layer)[0], keys)
                assert np.array_equal(cache.get(layer)[1], values)

        # Dropping only the failed request is the front end's job (ROADMAP
        # item 6); done by hand here, the others finish as if nothing happened.
        frontend.batcher.release(doomed.request)
        for slot in range(len(array)):
            for role in ("primary", "mirror"):
                array.replica(slot, role).fault_policy = None
        frontend.run_until_idle(max_steps=50)  # raises no second time
        assert {s: list(h.result().tokens) for s, h in handles.items()} == expected

        # No thread is left blocked and the IO pool is clean: the same
        # executor restores the same context, bit for bit.
        retried = executor.restore_contexts_async(engine.hcache, ["r"])["r"].result(JOIN_S)
        assert retried.equals(healthy, atol=0.0)
    finally:
        gate.set()
        executor.close()


# ---------------------------------------------------------------------------
# a replayed prefix: the restore's packed calls share the helper pool
# ---------------------------------------------------------------------------


class ReleaseDuringReplay(NumericServingEngine):
    """Reports a restoring session once its replay has begun — and waits
    for that, so the iteration steps on it while the replay still runs."""

    replaying: threading.Event

    def _releasable(self):
        return list(self._restoring) if self.replaying.is_set() else []

    def finished_restores(self):
        if self._restoring:
            assert self.replaying.wait(JOIN_S), "the replay never began"
        return super().finished_restores()


def test_a_session_released_during_its_replay_streams_like_the_serial_loop(
    tiny_model, tiny_config, monkeypatch, serve_round
):
    """An r = 2 restore replays layer 0 in two row parts on its driver
    thread while the iteration — the released session's prompt next to a
    256-row one, also two parts — waits on the session's layer 0.  Both
    calls share the one-worker helper pool, so a part no worker has
    started must run on its own caller's thread, or each call waits for
    the other forever."""
    scheme = PartitionScheme.with_recompute_prefix(tiny_config.n_layers, 2)
    rng = np.random.default_rng(74)
    history, prompt = tokens_of(tiny_config, rng, 150), tokens_of(tiny_config, rng, 6)
    long_prompt = tokens_of(tiny_config, rng, 256)

    def engine_of(cls, executor=None):
        storage = StorageManager(StorageArray([FAST], link_bandwidth=100 * GB))
        hcache = HCacheEngine(tiny_model, storage, scheme=scheme)
        return cls(tiny_model, hcache, executor=executor)

    serial = engine_of(NumericServingEngine)
    serial.open_session("r")
    serve_round(serial, "r", history, 3)
    serial.open_session("p")
    expected = {
        "r": serve_round(serial, "r", prompt, 4),
        "p": serve_round(serial, "p", long_prompt, 3),
    }

    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(transformer_module, "_helper_pool", lambda: pool)
    monkeypatch.setattr(transformer_module, "part_count", lambda rows: 2)
    cuts = []
    real_cuts = transformer_module._part_cuts
    monkeypatch.setattr(
        transformer_module, "_part_cuts", lambda b, n: cuts.append(real_cuts(b, n)) or cuts[-1]
    )
    replaying, waiting = threading.Event(), threading.Event()
    real_replay, real_wait = tiny_model.replay, RestoreProgress.wait_layer

    def replay(tokens, views, start=0):
        if views:
            replaying.set()
            assert waiting.wait(JOIN_S), "the iteration never waited on the replay"
        return real_replay(tokens, views, start)

    def wait_layer(self, layer):
        waiting.set()
        real_wait(self, layer)

    executor = RestoreExecutor(1)
    engine = engine_of(ReleaseDuringReplay, executor)
    engine.replaying = replaying
    deadlocked = False
    try:
        engine.open_session("r")
        serve_round(engine, "r", history, 3)
        engine.evict("r")
        monkeypatch.setitem(vars(tiny_model), "replay", replay)
        monkeypatch.setattr(RestoreProgress, "wait_layer", wait_layer)
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=4096))
        handles = {
            s: frontend.submit(ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=n))
            for s, p, n in (("r", prompt, 4), ("p", long_prompt, 3))
        }
        served = threading.Thread(target=frontend.run_until_idle, kwargs={"max_steps": 50})
        served.start()
        served.join(JOIN_S)
        deadlocked = served.is_alive()
    finally:
        replaying.set()
        waiting.set()
        if not deadlocked:  # a deadlocked restore would hold the close forever
            executor.close()
            pool.shutdown()
    assert not deadlocked, "the iteration and the replay wait for each other"
    assert engine.early_releases == 1
    n_history = len(serial.session("r").tokens) - prompt.size - 4
    # The history is one replay chunk (one granule of rows); the replay
    # and the iteration each ran in two parts.
    calls = (n_history, prompt.size + long_prompt.size)
    assert [len(c) - 1 for c in cuts if c[-1] in calls] == [1, 2, 2]
    assert {s: list(h.result().tokens) for s, h in handles.items()} == expected
