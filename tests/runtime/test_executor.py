"""The restore drain loop and executor: accounting, containment, lifecycle.

Bit-exactness of every loop shape (inline, pooled) lives in
``tests/core/test_restore_matrix.py``.  This file covers what the one
loop (:func:`drain_granules`) owes its callers beyond the bytes: the
same device reads inline and pooled (counted by the devices and the IO
pool, not by the loop), the in-flight window that absorbs bursty
completion, containment of a read that fails mid-drain, concurrent
multi-context restores, latency emulation, and executor/pool lifecycle.
"""

from __future__ import annotations

import threading
import types
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine, merge_granule_plans
from repro.core.partition import LayerMethod, PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError, StateError
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime import IOWorkerPool, RestoreExecutor, RestoreProgress, drain_granules
from repro.runtime import executor as executor_module
from repro.runtime.executor import MAX_CONCURRENT_RESTORES
from repro.simulator import platform_preset
from repro.storage import LatencyEmulator, StorageManager
from repro.storage import device as device_module
from repro.storage import manager as manager_module


def build_engine(config, scheme=None):
    model = Transformer.from_seed(config, seed=11)
    manager = StorageManager(build_storage_array(platform_preset("default")))
    return model, HCacheEngine(model, manager, scheme=scheme)


@pytest.fixture
def one_chunk_granules(monkeypatch):
    """Restore granules of one 64-token chunk (the default is four)."""
    monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", 1)

def save_context(engine, model, config, n_tokens, context_id="c", seal=True, block=37):
    rng = np.random.default_rng(hash(context_id) % 2**32)
    tokens = rng.integers(0, config.vocab_size, size=n_tokens)
    engine.register_context(context_id)
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
    hidden = result.hidden_states
    for start in range(0, n_tokens, block):
        stop = min(start + block, n_tokens)
        engine.save_states(
            context_id,
            [h[start:stop] for h in hidden],
            tokens[start:stop],
            kv_cache=cache,
        )
    if seal:
        engine.seal(context_id)
    return cache


def device_totals(storage):
    """``(busy seconds, reads)`` summed over the array's devices so far."""
    devices = storage.array.devices
    return (
        sum(device.busy_seconds for device in devices),
        sum(device.op_counts[0] for device in devices),
    )


def restore_all(executor, engine, context_ids, **kwargs):
    """Start every restore, wait for all of them, return their futures."""
    futures = executor.restore_contexts_async(engine, context_ids, **kwargs)
    wait(futures.values())
    return futures


#: How the one loop is parameterised: no executor (inline reads), or an
#: IO pool of that many workers.
LOOP_POOLS = {"inline": None, "pool1": 1, "pool2": 2}


@pytest.fixture(params=sorted(LOOP_POOLS))
def loop_executor(request):
    """``None`` or a live executor, per :data:`LOOP_POOLS`."""
    pool = LOOP_POOLS[request.param]
    if pool is None:
        yield None
        return
    with RestoreExecutor(pool) as executor:
        yield executor


class TestDrainDirectUse:
    """The drain over every layer: pinned to the all-stored scheme (the
    default scheme stores no layer-0 rows to drain)."""

    @pytest.mark.parametrize("granule_chunks", [1, 4])
    def test_drain_hands_over_every_granule_in_plan_order(
        self, loop_executor, granule_chunks, monkeypatch
    ):
        monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", granule_chunks)
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        plan = engine.storage.granule_plan("c", list(range(config.n_layers)), "hidden")
        busy_before, reads_before = device_totals(engine.storage)
        drain_granules(
            engine.storage, "c", plan, lambda spec, rows: chunks.append(spec), loop_executor
        )
        busy_after, reads_after = device_totals(engine.storage)
        assert sum(c.n_tokens for c in chunks) == 128 * config.n_layers
        # The devices count one read per 64-token chunk behind the granules.
        assert reads_after - reads_before == 2 * config.n_layers
        assert busy_after > busy_before
        # Consumption follows the granule plan exactly.
        assert chunks == plan

    def test_drain_reads_every_chunk_once(self, loop_executor, monkeypatch):
        monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", 2)
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        _, reads_before = device_totals(engine.storage)
        drain_granules(
            engine.storage, "c", engine.storage.granule_plan("c", [0, 1], "hidden"),
            lambda spec, rows: chunks.append(rows.copy()), loop_executor,
        )
        _, reads_after = device_totals(engine.storage)
        assert len(chunks) == 2
        assert reads_after - reads_before == 4


#: A drain's plan: the hidden granules of every layer, or the hidden and
#: KV granules of a KV-suffix scheme merged as a restore merges them.
STAGING_PLANS = {
    "hidden": (PartitionScheme.pure_hcache, ("hidden",)),
    "hidden+kv": (lambda n: PartitionScheme.with_kv_suffix(n, 2), ("hidden", "kv")),
}


class TestDrainStaging:
    @pytest.mark.parametrize("plan_kind", sorted(STAGING_PLANS))
    @pytest.mark.parametrize("runway", [0, 1, 6])
    def test_consumed_rows_are_never_an_outstanding_reads_destination(
        self, loop_executor, runway, plan_kind, one_chunk_granules, monkeypatch
    ):
        """The drain takes ``window + 1`` staging slots round-robin: the
        rows handed to ``consume`` are never the destination of a read
        still outstanding, and hold exactly that granule's stored rows —
        a contiguous ``(n, width)`` view at the start of its slot, whichever
        kind's width it has."""
        monkeypatch.setattr(executor_module, "RUNWAY_GRANULES", runway)
        window = 1 if loop_executor is None else loop_executor.inflight
        config = model_preset("tiny-llama")
        scheme_of, kinds = STAGING_PLANS[plan_kind]
        scheme = scheme_of(config.n_layers)
        model, engine = build_engine(config, scheme)
        save_context(engine, model, config, 320)
        storage = engine.storage
        runs = {
            kind: scheme.layers_with(LayerMethod.HIDDEN if kind == "hidden" else LayerMethod.KV)
            for kind in kinds
        }
        stored = {
            (layer, kind): storage.load_layer("c", layer, kind)
            for kind, layers in runs.items()
            for layer in layers
        }
        plan = merge_granule_plans(
            *(storage.granule_plan("c", layers, kind) for kind, layers in runs.items())
        )
        submitted = []

        def recording(submit):
            def wrapper(fn, /, *args):
                submitted.append(args[2])
                return submit(fn, *args)

            return wrapper

        if loop_executor is None:
            monkeypatch.setattr(
                executor_module, "_run_inline", recording(executor_module._run_inline)
            )
        else:
            loop_executor.pool.submit = recording(loop_executor.pool.submit)
        consumed = []

        def consume(spec, rows):
            assert submitted[len(consumed)] is rows
            outstanding = submitted[len(consumed) + 1 :]
            assert len(outstanding) <= window
            assert not any(np.shares_memory(rows, other) for other in outstanding)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, stored[spec.layer, spec.kind][spec.start : spec.stop])
            consumed.append(spec)

        drain_granules(storage, "c", plan, consume, loop_executor)
        assert consumed == plan
        assert {spec.kind for spec in consumed} == set(kinds)
        slots = {rows.__array_interface__["data"][0] for rows in submitted}
        assert len(slots) == min(window + 1, len(consumed))

    def test_an_empty_plan_reads_nothing_and_still_runs_the_work_under_io(
        self, loop_executor
    ):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        ran = []
        _, reads_before = device_totals(engine.storage)
        drain_granules(
            engine.storage, "c", [], lambda spec, rows: ran.append(spec), loop_executor,
            under_io=lambda: ran.append("under_io"),
        )
        assert ran == ["under_io"]
        assert device_totals(engine.storage)[1] == reads_before


class TestContainment:
    def test_failed_read_mid_drain_settles_every_future(self, loop_executor, one_chunk_granules):
        """A granule read that raises mid-drain must propagate, leave no
        in-flight read unsettled (no worker may keep filling an abandoned
        staging slot) and leave the pool usable for the next restore."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        healthy = engine.restore("c")
        storage = engine.storage
        real_read = storage.read_granule_into
        futures = []
        if loop_executor is not None:
            pool = loop_executor.pool
            real_submit = pool.submit

            def recording_submit(fn, /, *args, **kwargs):
                futures.append(real_submit(fn, *args, **kwargs))
                return futures[-1]

            pool.submit = recording_submit
        calls = []

        def failing_read(context_id, spec, out):
            calls.append(spec)
            if len(calls) == 6:
                raise OSError("injected read fault")
            return real_read(context_id, spec, out)

        storage.read_granule_into = failing_read  # instance-level wrapper
        try:
            with pytest.raises(OSError, match="injected read fault"):
                engine.restore("c", executor=loop_executor)
        finally:
            del storage.read_granule_into
        assert len(calls) >= 6
        assert all(future.done() for future in futures)
        # The same executor (and its pool) serves the next restore.
        assert engine.restore("c", executor=loop_executor).equals(healthy, atol=0.0)


class TestAccountingParity:
    def test_pooled_accounting_matches_inline(self):
        """Device read counts and modelled device seconds are identical;
        only a pooled restore submits tasks to the pool, one per granule."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        totals = [device_totals(engine.storage)]
        single = engine.restore("c")
        totals.append(device_totals(engine.storage))
        with RestoreExecutor(2) as executor:
            threaded = engine.restore("c", executor=executor)
            granules = executor.pool.tasks_submitted
        totals.append(device_totals(engine.storage))
        (busy_0, reads_0), (busy_1, reads_1), (busy_2, reads_2) = totals
        assert len(threaded) == len(single) == 256
        assert reads_2 - reads_1 == reads_1 - reads_0 > 0
        assert busy_2 - busy_1 == pytest.approx(busy_1 - busy_0)
        # 256 tokens in 4-chunk granules: one granule per stored layer.
        assert granules == config.n_layers - 1

    def test_threaded_restore_fills_dispatch_counters(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 197)
        with RestoreExecutor(2) as executor:
            engine.restore("c", executor=executor)
            assert executor.pool.dispatch_s > 0.0
            assert executor.pool.tasks_submitted > 0


class ScriptedReads:
    """Makes ``storage.read_granule_into`` land when the test says so.

    Installed on the storage instance (the drain looks the read up at
    every submit), it blocks the read of plan granule ``k`` on event
    ``k`` and records when it has landed.  Nothing here reads a clock, so
    what a consume sees banked depends only on the release script.
    """

    TIMEOUT_S = 10.0

    def __init__(self, storage, plan):
        self._read = storage.read_granule_into
        self._index = {(spec.layer, spec.start): k for k, spec in enumerate(plan)}
        self.releases = [threading.Event() for _ in plan]
        self.landed: set[int] = set()
        self._cond = threading.Condition()
        storage.read_granule_into = self

    def __call__(self, context_id, spec, view):
        k = self._index[(spec.layer, spec.start)]
        self.releases[k].wait(self.TIMEOUT_S)
        self._read(context_id, spec, view)
        with self._cond:
            self.landed.add(k)
            self._cond.notify_all()

    def release(self, granules):
        for k in granules:
            self.releases[k].set()

    def settle(self, submitted):
        """Wait until every submitted, released read has landed (reads are
        submitted in plan order, so ``submitted`` is a plan prefix)."""
        released = sum(event.is_set() for event in self.releases)
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self.landed) == min(released, submitted), self.TIMEOUT_S
            )


class TestWindowSerialization:
    BURST = 9

    def test_window_of_one_serializes_under_bursty_completion(
        self, one_chunk_granules, monkeypatch
    ):
        """The in-flight window is the runway that absorbs bursty IO
        completion.  Reads here land in scripted bursts of nine: a burst
        is released when the consumer reaches the last granule released
        so far.  At each consume the test counts the granules already
        landed but not yet consumed — the runway banked.  With no runway
        on one worker only the next granule is ever submitted, so at most
        one is banked and the consumer meets every burst with nothing in
        hand; the default window banks a whole window's worth."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, scheme=PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 320)
        layers = list(range(config.n_layers))
        plan = engine.storage.granule_plan("c", layers, "hidden")
        n = len(plan)
        assert n == 20

        def banked_per_consume(executor):
            storage = engine.storage
            scripted = ScriptedReads(storage, plan)
            scripted.release(range(self.BURST))
            banked = []

            def consume(spec, rows):
                i = len(banked)
                settled = scripted.settle(executor.pool.tasks_submitted)
                banked.append(len({k for k in scripted.landed if k > i}) if settled else None)
                if (i + 1) % self.BURST == 0:
                    scripted.release(range(i + 1, min(i + 1 + self.BURST, n)))

            try:
                drain_granules(storage, "c", plan, consume, executor)
            finally:
                del storage.read_granule_into
            return banked

        def expected(window):
            # Landed at consume i: the plan prefix both released (whole
            # bursts up to i's) and submitted (i + 1 + window reads).
            return [
                min((i // self.BURST + 1) * self.BURST, i + 1 + window, n) - (i + 1)
                for i in range(n)
            ]

        with RestoreExecutor(1) as executor, monkeypatch.context() as patch:
            patch.setattr(executor_module, "RUNWAY_GRANULES", 0)
            assert executor.inflight == 1
            serial = banked_per_consume(executor)
        with RestoreExecutor(1) as executor:
            window = executor.inflight
            overlap = banked_per_consume(executor)
        assert window > 1
        assert serial == expected(1)
        assert max(serial) == 1
        assert overlap == expected(window)
        assert max(overlap) == window


class TestConcurrentContexts:
    def test_concurrent_restores_match_sequential(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        lengths = {"a": 197, "b": 64, "c3": 130, "d": 5}
        for cid, n in lengths.items():
            save_context(engine, model, config, n, context_id=cid)
        sequential = {cid: engine.restore(cid) for cid in lengths}
        with RestoreExecutor(2) as executor:
            concurrent = restore_all(executor, engine, list(lengths))
        for cid in lengths:
            assert concurrent[cid].result().equals(sequential[cid], atol=0.0), cid

    def test_duplicate_context_ids_rejected(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        with RestoreExecutor(1) as executor:
            with pytest.raises(ConfigError):
                executor.restore_contexts_async(engine, ["c", "c"])

    def test_progress_for_a_context_not_restored_is_rejected_before_any_restore(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        started = []
        real_restore = engine.restore

        def recorded_restore(*args, **kwargs):
            started.append(args)
            return real_restore(*args, **kwargs)

        engine.restore = recorded_restore
        progress = {"elsewhere": RestoreProgress("elsewhere", config.n_layers)}
        with RestoreExecutor(1) as executor:
            with pytest.raises(ConfigError, match="elsewhere"):
                executor.restore_contexts_async(engine, ["c"], progress=progress)
            assert executor.pool.tasks_submitted == 0
        assert started == []

    def test_empty_context_list(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        with RestoreExecutor(1) as executor:
            assert executor.restore_contexts_async(engine, []) == {}

    def test_reserve_is_per_context(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        for cid, n in (("a", 100), ("b", 64)):
            save_context(engine, model, config, n, context_id=cid)
        with RestoreExecutor(1) as executor:
            mapped = restore_all(executor, engine, ["a", "b"], reserve_tokens={"a": 300})
            shared = restore_all(executor, engine, ["a", "b"], reserve_tokens=300)
            for cid, future in mapped.items():
                assert future.result().equals(shared[cid].result(), atol=0.0)
            # int reserves every context; a mapping only the ids it names.
            assert mapped["a"].result().capacity >= 300
            assert mapped["b"].result().capacity < 300
            assert all(f.result().capacity >= 300 for f in shared.values())

    def test_failure_surfaces_after_the_other_drivers_finish(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64, context_id="a")
        engine.register_context("empty")  # nothing saved: restore raises
        with RestoreExecutor(1) as executor:
            futures = restore_all(executor, engine, ["empty", "a"])
            with pytest.raises(Exception, match="no saved state"):
                futures["empty"].result()
            assert len(futures["a"].result()) == 64
            # The pool is still usable afterwards.
            assert len(restore_all(executor, engine, ["a"])["a"].result()) == 64

    def test_at_most_max_concurrent_restores_drive_at_once(self):
        """More contexts than drivers: exactly ``MAX_CONCURRENT_RESTORES``
        restores run together, the rest queue behind them."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        ids = [f"c{i}" for i in range(MAX_CONCURRENT_RESTORES + 2)]
        for cid in ids:
            save_context(engine, model, config, 16, context_id=cid)
        real_restore = engine.restore
        cond = threading.Condition()
        active, peak = [0], [0]

        def counted_restore(*args, **kwargs):
            with cond:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                cond.notify_all()
                # Hold until every driver is busy (or a bounded wait).
                cond.wait_for(lambda: active[0] >= MAX_CONCURRENT_RESTORES, timeout=5.0)
            try:
                return real_restore(*args, **kwargs)
            finally:
                with cond:
                    active[0] -= 1

        engine.restore = counted_restore
        with RestoreExecutor(1) as executor:
            futures = restore_all(executor, engine, ids)
        assert peak[0] == MAX_CONCURRENT_RESTORES
        assert all(len(future.result()) == 16 for future in futures.values())

    def test_closed_executor_raises_typed_error_up_front(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        executor = RestoreExecutor(1)
        restore_all(executor, engine, ["c"])
        executor.close()
        with pytest.raises(StateError, match="closed"):
            executor.restore_contexts_async(engine, ["c"])


class TestNumericServingEngineIntegration:
    def _run_session(self, executor):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        hcache = HCacheEngine(model, manager)
        engine = NumericServingEngine(model, hcache, executor=executor)
        engine.open_session("s")
        rng = np.random.default_rng(9)
        outputs = []
        for round_idx in range(3):
            prompt = rng.integers(0, config.vocab_size, size=17 + round_idx)
            outputs.append(engine.chat_round("s", prompt, n_output_tokens=4))
            engine.evict("s")
        return outputs

    def test_rounds_identical_with_and_without_executor(self):
        baseline = self._run_session(None)
        with RestoreExecutor(2) as executor:
            threaded = self._run_session(executor)
        assert baseline == threaded

    def test_start_restores_brings_sessions_back_concurrently(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        hcache = HCacheEngine(model, manager)
        with RestoreExecutor(2) as executor:
            engine = NumericServingEngine(model, hcache, executor=executor)
            rng = np.random.default_rng(4)
            expected = {}
            for sid in ("s1", "s2", "s3"):
                engine.open_session(sid)
                prompt = rng.integers(0, config.vocab_size, size=23)
                engine.chat_round(sid, prompt, n_output_tokens=3)
                engine.evict(sid)
                # Oracle: the single-threaded restore of the same stored
                # state.  (The *live* cache matches only to float rounding
                # for decode-produced rows — the GEMV-vs-GEMM caveat.)
                expected[sid] = hcache.restore(sid)
            engine.start_restores(dict.fromkeys(expected, 0), background=False)
            assert engine.finished_restores() == list(expected)
            for sid, cache in expected.items():
                restored = engine.session(sid).kv_cache
                assert restored is not None
                assert restored.equals(cache, atol=0.0)

    def test_only_an_evicted_history_asks_for_a_restore(self):
        config = model_preset("tiny-llama")
        model = Transformer.from_seed(config, seed=3)
        manager = StorageManager(build_storage_array(platform_preset("default")))
        engine = NumericServingEngine(model, HCacheEngine(model, manager))
        engine.open_session("s")
        assert not engine.begin_round("s", 16)  # fresh: nothing to restore
        engine.chat_round("s", np.arange(5), n_output_tokens=2)
        assert not engine.begin_round("s", 16)  # resident
        engine.evict("s")
        assert engine.begin_round("s", 16)


class TestLatencyEmulation:
    def test_the_default_quantum_is_one_millisecond(self):
        assert device_module.SLEEP_QUANTUM_S == 1e-3

    @pytest.mark.parametrize("quantum", [1e-3, 2e-4, 1.0])
    def test_emulator_batches_sub_quantum_charges(self, quantum, monkeypatch):
        monkeypatch.setattr(device_module, "SLEEP_QUANTUM_S", quantum)
        sleeps = []
        emulator = LatencyEmulator(sleep_fn=sleeps.append)
        emulator.charge(quantum / 4)
        emulator.charge(quantum / 4)
        assert sleeps == []  # half a quantum of debt
        emulator.charge(quantum / 2)
        assert len(sleeps) == 1 and sleeps[0] == pytest.approx(quantum)
        assert emulator.pending_s == pytest.approx(0.0, abs=1e-12)
        assert emulator.slept_s == pytest.approx(quantum)

    def test_emulator_flush_drains_remainder(self, monkeypatch):
        monkeypatch.setattr(device_module, "SLEEP_QUANTUM_S", 1.0)
        sleeps = []
        emulator = LatencyEmulator(sleep_fn=sleeps.append)
        emulator.charge(0.25)
        emulator.flush()
        assert sleeps == [pytest.approx(0.25)]
        assert emulator.pending_s == 0.0

    def test_emulator_rejects_bad_inputs(self):
        emulator = LatencyEmulator(sleep_fn=lambda s: None)
        with pytest.raises(ConfigError):
            emulator.charge(-1.0)

    def test_concurrent_sleeps_serialize_like_one_io_stream(self):
        """Two workers charging at once must not halve emulated IO wall
        clock: sleeps serialize on the emulator's sleep lock, matching
        the single serial IO stream the makespan model costs.  The first
        sleep holds until the second worker has charged a full quantum;
        at no moment is more than one sleep in progress."""
        lock = threading.Lock()
        in_progress, peak, sleeps = [0], [0], []
        first_entered, release = threading.Event(), threading.Event()

        def counting_sleep(seconds):
            with lock:
                in_progress[0] += 1
                peak[0] = max(peak[0], in_progress[0])
                sleeps.append(seconds)
                first = len(sleeps) == 1
            if first:
                first_entered.set()
                assert release.wait(10.0)
            with lock:
                in_progress[0] -= 1

        emulator = LatencyEmulator(sleep_fn=counting_sleep)
        first = threading.Thread(target=emulator.charge, args=(5e-3,))
        second = threading.Thread(target=emulator.charge, args=(5e-3,))
        first.start()
        assert first_entered.wait(10.0)
        second.start()
        # The second worker's debt fills a quantum, so it must now wait
        # for the first sleep rather than start its own beside it.
        second.join(0.05)
        with lock:
            assert in_progress[0] == 1 and len(sleeps) == 1
        release.set()
        first.join()
        second.join()
        assert peak[0] == 1
        assert sleeps == [pytest.approx(5e-3)] * 2
        assert emulator.slept_s == pytest.approx(10e-3)

    def test_single_thread_still_pays_full_debt(self, monkeypatch):
        """One thread's charges sleep off in full: the overshoot credit
        only corrects timer drift, never skips modelled seconds.  Both
        timers are fakes: one that sleeps exactly what it is asked, and
        one that overshoots every sleep by exactly 0.2 ms."""
        clock = [0.0]
        monkeypatch.setattr(
            device_module, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
        )

        def exact_sleep(seconds):
            clock[0] += seconds

        emulator = LatencyEmulator(sleep_fn=exact_sleep)
        for _ in range(40):
            emulator.charge(1e-3)
        emulator.flush()
        assert clock[0] == pytest.approx(0.040)
        assert emulator.slept_s == pytest.approx(0.040)
        assert emulator.pending_s == pytest.approx(0.0, abs=1e-12)
        clock[0] = 0.0
        sleeps = []

        def overshooting_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds + 2e-4

        emulator = LatencyEmulator(sleep_fn=overshooting_sleep)
        for _ in range(40):
            emulator.charge(1e-3)
        emulator.flush()
        assert clock[0] >= 0.040
        # slept_s + residual debt accounts for the full 40ms charged,
        # minus the overshoot the emulator credited back.
        credited = 2e-4 * len(sleeps)
        assert emulator.slept_s + emulator.pending_s + credited == pytest.approx(0.040)
        assert emulator.slept_s == pytest.approx(sum(sleeps))
        assert emulator.slept_s > 0.030

    def test_array_emulation_charges_modelled_read_seconds(self, loop_executor):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        healthy = engine.restore("c")
        array = engine.storage.array
        emulator = array.emulate_latency()
        # Swap the real sleep for a recorder: what it slept, plus the real
        # time credited instead of slept (the reads' own duration, and any
        # timer overshoot, which flush leaves as negative pending debt),
        # must equal the modelled device seconds of the restore's reads.
        charged = []
        emulator._sleep = charged.append
        busy_before, _ = device_totals(engine.storage)
        restored = engine.restore("c", executor=loop_executor)
        emulator.flush()
        busy_after, _ = device_totals(engine.storage)
        assert restored.equals(healthy, atol=0.0)
        assert busy_after > busy_before
        accounted = sum(charged) + emulator.credited_s + emulator.pending_s
        assert accounted == pytest.approx(busy_after - busy_before)

    def test_emulation_is_idempotent(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency()
        assert array.emulate_latency() is first
        assert all(d.emulator is first for d in array.devices)


class TestPoolAndExecutorValidation:
    def test_pool_needs_positive_size(self):
        with pytest.raises(ConfigError):
            IOWorkerPool(0)

    def test_pool_rejects_submit_after_shutdown(self):
        pool = IOWorkerPool(1)
        pool.shutdown()
        with pytest.raises(StateError):
            pool.submit(lambda: None)

    def test_pool_counts_tasks(self):
        with IOWorkerPool(1) as pool:
            futures = [pool.submit(lambda x: x * 2, i) for i in range(5)]
            assert [f.result() for f in futures] == [0, 2, 4, 6, 8]
            assert pool.tasks_submitted == 5

    def test_default_pool_and_window(self, monkeypatch):
        """One worker by default; the window is the pool's workers plus
        the runway, read when a drain asks for it."""
        with RestoreExecutor() as executor:
            assert executor.pool.size == 1
            assert executor.inflight == 1 + 6
        with RestoreExecutor(2) as executor:
            assert executor.inflight == 2 + 6
            monkeypatch.setattr(executor_module, "RUNWAY_GRANULES", 0)
            assert executor.inflight == 2

    def test_executor_shared_pool_not_closed(self):
        with IOWorkerPool(1) as pool:
            executor = RestoreExecutor(pool)
            executor.close()  # does not own the pool
            assert not pool.closed
