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
import time
import types
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError, StateError
from repro.models.config import model_preset
from repro.models.transformer import Transformer
from repro.runtime import IOWorkerPool, RestoreExecutor, drain_granules
from repro.runtime.executor import MAX_CONCURRENT_RESTORES
from repro.simulator import platform_preset
from repro.storage import LatencyEmulator, StorageManager
from repro.storage import device as device_module


def build_engine(config, scheme=None, granule_chunks=4):
    model = Transformer.from_seed(config, seed=11)
    manager = StorageManager(build_storage_array(platform_preset("default")))
    engine = HCacheEngine(
        model, manager, scheme=scheme, stream_granule_chunks=granule_chunks
    )
    return model, engine

def save_context(engine, model, config, n_tokens, context_id="c", seal=True, block=37):
    rng = np.random.default_rng(hash(context_id) % 2**32)
    tokens = rng.integers(0, config.vocab_size, size=n_tokens)
    engine.register_context(context_id)
    result, cache = model.prefill(tokens, capture_hidden=True)
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

    def test_drain_hands_over_every_granule_in_plan_order(self, loop_executor):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        busy_before, reads_before = device_totals(engine.storage)
        drain_granules(
            engine.storage, "c", list(range(config.n_layers)), "hidden",
            engine.stream_granule_chunks, chunks.append, loop_executor,
        )
        busy_after, reads_after = device_totals(engine.storage)
        assert sum(c.n_tokens for c in chunks) == 128 * config.n_layers
        # The devices count one read per 64-token chunk behind the granules.
        assert reads_after - reads_before == 2 * config.n_layers
        assert busy_after > busy_before
        # Consumption follows the granule plan exactly.
        plan = engine.storage.granule_plan(
            "c", list(range(config.n_layers)), "hidden", engine.stream_granule_chunks
        )
        assert [(c.layer, c.start) for c in chunks] == [(g.layer, g.start) for g in plan]

    def test_drain_reads_every_chunk_once(self, loop_executor):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        _, reads_before = device_totals(engine.storage)
        drain_granules(engine.storage, "c", [0, 1], "hidden", 2, chunks.append, loop_executor)
        _, reads_after = device_totals(engine.storage)
        assert len(chunks) == 2
        assert reads_after - reads_before == 4


class TestContainment:
    def test_failed_read_mid_drain_settles_every_future(self, loop_executor):
        """A granule read that raises mid-drain must propagate, leave no
        in-flight read unsettled (no worker may keep filling an abandoned
        staging slot) and leave the pool usable for the next restore."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, granule_chunks=1)
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

    def test_window_of_one_serializes_under_bursty_completion(self):
        """The in-flight window is the runway that absorbs bursty IO
        completion.  Reads here land in scripted bursts of nine: a burst
        is released when the consumer reaches the last granule released
        so far.  At each consume the test counts the granules already
        landed but not yet consumed — the runway banked.  With
        ``inflight=1`` only the next granule is ever submitted, so at most
        one is banked and the consumer meets every burst with nothing in
        hand; the default window banks a whole window's worth."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(
            config, scheme=PartitionScheme.pure_hcache(config.n_layers), granule_chunks=1
        )
        save_context(engine, model, config, 320)
        layers = list(range(config.n_layers))
        plan = engine.storage.granule_plan("c", layers, "hidden", 1)
        n = len(plan)
        assert n == 20

        def banked_per_consume(executor):
            storage = engine.storage
            scripted = ScriptedReads(storage, plan)
            scripted.release(range(self.BURST))
            banked = []

            def consume(chunk):
                i = len(banked)
                settled = scripted.settle(executor.pool.tasks_submitted)
                banked.append(len({k for k in scripted.landed if k > i}) if settled else None)
                if (i + 1) % self.BURST == 0:
                    scripted.release(range(i + 1, min(i + 1 + self.BURST, n)))

            try:
                drain_granules(storage, "c", layers, "hidden", 1, consume, executor)
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

        with RestoreExecutor(1, inflight=1) as executor:
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
    def test_emulator_batches_sub_quantum_charges(self):
        sleeps = []
        emulator = LatencyEmulator(min_sleep_s=1e-3, sleep_fn=sleeps.append)
        for _ in range(9):
            emulator.charge(1e-4)
        assert sleeps == []  # 0.9 ms of debt: below the quantum
        emulator.charge(1e-4)
        assert len(sleeps) == 1 and sleeps[0] == pytest.approx(1e-3)
        assert emulator.pending_s == 0.0
        assert emulator.slept_s == pytest.approx(1e-3)

    def test_emulator_flush_drains_remainder(self):
        sleeps = []
        emulator = LatencyEmulator(min_sleep_s=1.0, sleep_fn=sleeps.append)
        emulator.charge(0.25)
        emulator.flush()
        assert sleeps == [pytest.approx(0.25)]
        assert emulator.pending_s == 0.0

    def test_emulator_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            LatencyEmulator(min_sleep_s=0.0)
        emulator = LatencyEmulator(sleep_fn=lambda s: None)
        with pytest.raises(ConfigError):
            emulator.charge(-1.0)

    def test_concurrent_sleeps_serialize_like_one_io_stream(self):
        """Two workers charging at once must not halve emulated IO wall
        clock: sleeps serialize on the emulator's sleep lock, matching
        the single serial IO stream the makespan model costs."""
        emulator = LatencyEmulator(min_sleep_s=1e-4)
        def worker():
            emulator.charge(5e-3)
        threads = [threading.Thread(target=worker) for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        assert elapsed >= 9e-3  # ~10ms of modelled IO cannot run 2-parallel

    def test_single_thread_still_pays_full_debt(self, monkeypatch):
        """One thread's charges sleep off in full: the overshoot credit
        only corrects timer drift, never skips modelled seconds."""
        emulator = LatencyEmulator(min_sleep_s=1e-3)
        t0 = time.perf_counter()
        for _ in range(40):
            emulator.charge(1e-3)
        emulator.flush()
        wall = time.perf_counter() - t0
        assert wall >= 0.037, wall
        # How much a real sleep overshoots depends on the host's load, so
        # the credit bookkeeping is checked on a timer that overshoots
        # every sleep by exactly 0.2 ms.
        clock = [0.0]
        sleeps = []

        def overshooting_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds + 2e-4

        monkeypatch.setattr(
            device_module, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
        )
        emulator = LatencyEmulator(min_sleep_s=1e-3, sleep_fn=overshooting_sleep)
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
        # Swap the real sleep for a recorder: totals must equal the
        # modelled device seconds of the restore's reads.
        charged = []
        emulator._sleep = charged.append
        busy_before, _ = device_totals(engine.storage)
        restored = engine.restore("c", executor=loop_executor)
        emulator.flush()
        array.stop_latency_emulation()
        busy_after, _ = device_totals(engine.storage)
        assert restored.equals(healthy, atol=0.0)
        assert busy_after > busy_before
        assert sum(charged) == pytest.approx(busy_after - busy_before)

    def test_emulation_is_idempotent_and_detachable(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency()
        assert array.emulate_latency() is first
        array.stop_latency_emulation()
        assert array.latency_emulator is None
        assert all(d.emulator is None for d in array.devices)

    def test_a_different_quantum_while_emulating_is_rejected(self):
        config = model_preset("tiny-llama")
        _, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency(min_sleep_s=1e-3)
        assert array.emulate_latency(min_sleep_s=1e-3) is first
        with pytest.raises(ConfigError, match="stop_latency_emulation"):
            array.emulate_latency(min_sleep_s=10e-3)
        assert array.latency_emulator is first and first.min_sleep_s == 1e-3
        array.stop_latency_emulation()
        assert array.emulate_latency(min_sleep_s=10e-3).min_sleep_s == 10e-3
        array.stop_latency_emulation()


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

    def test_executor_validates_inflight(self):
        with pytest.raises(ConfigError):
            RestoreExecutor(1, inflight=0)

    def test_default_pool_and_window(self):
        """One worker by default; the window is the pool's workers plus
        the runway."""
        with RestoreExecutor() as executor:
            assert executor.pool.size == 1
            assert executor.inflight == 1 + 6
        with RestoreExecutor(2) as executor:
            assert executor.inflight == 2 + 6
        with IOWorkerPool(1) as pool, RestoreExecutor(pool, inflight=9) as executor:
            assert executor.inflight == 9  # explicit inflight wins

    def test_executor_shared_pool_not_closed(self):
        with IOWorkerPool(1) as pool:
            executor = RestoreExecutor(pool)
            executor.close()  # does not own the pool
            assert not pool.closed
