"""The restore drain loop and executor: accounting, containment, lifecycle.

Bit-exactness of every loop shape (inline, pooled, sharded) lives in
``tests/core/test_restore_matrix.py``.  This file covers what the one
loop (:func:`drain_granules`) owes its callers beyond the bytes: stats
accounting parity between inline and pooled drains, containment of a
read that fails mid-drain, concurrent multi-context restores, latency
emulation, and executor/pool lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError, StateError
from repro.models.config import model_preset
from repro.models.transformer import Transformer
from repro.runtime import IOWorkerPool, RestoreExecutor, drain_granules
from repro.simulator import platform_preset
from repro.storage import LatencyEmulator, StorageManager


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


#: How the one loop is parameterised: no executor (inline reads), one
#: pipeline stage on a pool, several stages on a pool.
LOOP_SHAPES = {
    "inline": None,
    "single-stage": dict(pool=1, shards=(1, 1)),
    "multi-stage": dict(pool=2, shards=(2, 2)),
}


@pytest.fixture(params=sorted(LOOP_SHAPES))
def loop_executor(request):
    """``None`` or a live executor, per :data:`LOOP_SHAPES`."""
    options = LOOP_SHAPES[request.param]
    if options is None:
        yield None
        return
    with RestoreExecutor(options["pool"], shards=options["shards"]) as executor:
        yield executor


class TestDrainDirectUse:
    """The drain over every layer: pinned to the all-stored scheme (the
    default scheme stores no layer-0 rows to drain)."""

    def test_drain_traces_every_granule_it_consumed(self, loop_executor):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        stats = RestoreBreakdown()
        trace = drain_granules(
            engine.storage, "c", list(range(config.n_layers)), "hidden",
            engine.stream_granule_chunks, chunks.append, loop_executor, stats=stats,
        )
        assert stats.granules == len(chunks) == len(trace) > 0
        assert sum(g.rows for g in trace) == 128 * config.n_layers
        stages = 1 if loop_executor is None else loop_executor.shard_shape[0]
        assert {g.stage for g in trace} == set(range(stages))
        # Within a stage, consumption follows the granule plan exactly.
        plan = engine.storage.granule_plan(
            "c", list(range(config.n_layers)), "hidden", engine.stream_granule_chunks
        )
        seen = [(c.layer, c.start) for c in chunks]
        assert sorted(seen) == sorted((g.layer, g.start) for g in plan)
        if stages == 1:
            assert seen == [(g.layer, g.start) for g in plan]

    def test_untimed_drain_returns_no_trace(self, loop_executor):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config, PartitionScheme.pure_hcache(config.n_layers))
        save_context(engine, model, config, 128)
        chunks = []
        trace = drain_granules(
            engine.storage, "c", [0, 1], "hidden", 2, chunks.append, loop_executor
        )
        assert trace == [] and len(chunks) == 2


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


class TestBreakdownParity:
    def test_pooled_accounting_matches_inline(self):
        """Granule/read counts and modelled makespans are identical; only
        the wall-clock split differs (pooled read_s is exposed stall, and
        only pooled drains pay dispatch)."""
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        single_stats = RestoreBreakdown()
        engine.restore("c", stats=single_stats)
        threaded_stats = RestoreBreakdown()
        with RestoreExecutor(2) as executor:
            engine.restore("c", stats=threaded_stats, executor=executor)
        assert single_stats.read_s > 0.0 and single_stats.dispatch_s == 0.0
        assert threaded_stats.dispatch_s > 0.0
        assert threaded_stats.granules == single_stats.granules
        assert threaded_stats.device_reads == single_stats.device_reads
        assert threaded_stats.n_tokens == single_stats.n_tokens
        assert threaded_stats.modelled_io_s == pytest.approx(
            single_stats.modelled_io_s
        )
        assert threaded_stats.projection.chunks == single_stats.projection.chunks
        assert threaded_stats.modelled_pipelined_s <= threaded_stats.modelled_serial_s


class TestConcurrentContexts:
    def test_concurrent_restores_match_sequential(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        lengths = {"a": 197, "b": 64, "c3": 130, "d": 5}
        for cid, n in lengths.items():
            save_context(engine, model, config, n, context_id=cid)
        sequential = {cid: engine.restore(cid) for cid in lengths}
        with RestoreExecutor(2) as executor:
            concurrent = executor.restore_contexts(engine, list(lengths))
        for cid in lengths:
            assert concurrent[cid].equals(sequential[cid], atol=0.0), cid

    def test_duplicate_context_ids_rejected(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        with RestoreExecutor(1) as executor:
            with pytest.raises(ConfigError):
                executor.restore_contexts(engine, ["c", "c"])

    def test_empty_context_list(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        with RestoreExecutor(1) as executor:
            assert executor.restore_contexts(engine, []) == {}
            assert executor.restore_contexts_async(engine, []) == {}

    def test_blocking_restore_is_a_wait_over_the_async_one(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        for cid, n in (("a", 100), ("b", 64)):
            save_context(engine, model, config, n, context_id=cid)
        with RestoreExecutor(1) as executor:
            futures = executor.restore_contexts_async(
                engine, ["a", "b"], reserve_tokens={"a": 300}
            )
            blocking = executor.restore_contexts(engine, ["a", "b"], reserve_tokens=300)
            for cid, future in futures.items():
                assert future.result().equals(blocking[cid], atol=0.0)
            # int reserves every context; a mapping only the ids it names.
            assert futures["a"].result().capacity >= 300
            assert futures["b"].result().capacity < 300
            assert all(cache.capacity >= 300 for cache in blocking.values())

    def test_first_failure_propagates_after_all_drivers_finish(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64, context_id="a")
        engine.register_context("empty")  # nothing saved: restore raises
        with RestoreExecutor(1) as executor:
            with pytest.raises(Exception, match="no saved state"):
                executor.restore_contexts(engine, ["empty", "a"])
            # The pool is still usable afterwards.
            assert len(executor.restore_contexts(engine, ["a"])["a"]) == 64

    @pytest.mark.parametrize("method", ["restore_contexts", "restore_contexts_async"])
    def test_closed_executor_raises_typed_error_up_front(self, method):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 64)
        executor = RestoreExecutor(1)
        executor.restore_contexts(engine, ["c"])
        executor.close()
        with pytest.raises(StateError, match="closed"):
            getattr(executor, method)(engine, ["c"])


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
        import threading
        import time as _time

        emulator = LatencyEmulator(min_sleep_s=1e-4)
        def worker():
            emulator.charge(5e-3)
        threads = [threading.Thread(target=worker) for _ in range(2)]
        t0 = _time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = _time.perf_counter() - t0
        assert elapsed >= 9e-3  # ~10ms of modelled IO cannot run 2-parallel

    def test_array_emulation_charges_modelled_read_seconds(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        save_context(engine, model, config, 256)
        array = engine.storage.array
        emulator = array.emulate_latency()
        # Swap the real sleep for a recorder: totals must equal the
        # modelled device seconds of the restore's reads.
        charged = []
        emulator._sleep = charged.append
        stats = RestoreBreakdown()
        restored = engine.restore("c", stats=stats)
        emulator.flush()
        array.stop_latency_emulation()
        assert len(restored) == 256
        assert sum(charged) == pytest.approx(stats.modelled_io_s)

    def test_emulation_is_idempotent_and_detachable(self):
        config = model_preset("tiny-llama")
        model, engine = build_engine(config)
        array = engine.storage.array
        first = array.emulate_latency()
        assert array.emulate_latency() is first
        array.stop_latency_emulation()
        assert array.latency_emulator is None
        assert all(d.emulator is None for d in array.devices)


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

    def test_executor_validates_shard_shape(self):
        with pytest.raises(ConfigError):
            RestoreExecutor(shards=(0, 1))
        with pytest.raises(ConfigError):
            RestoreExecutor(shards=(1, 0))

    def test_default_pool_and_window_follow_the_shape(self):
        """One worker per simulated GPU; each stage's window is its share
        of the workers plus the runway."""
        with RestoreExecutor(shards=(3, 2)) as executor:
            assert executor.pool.size == 6
            assert executor.shard_shape == (3, 2)
            assert executor.inflight == 2 + 6
        with RestoreExecutor(2) as executor:
            assert executor.shard_shape == (1, 1)
            assert executor.inflight == 2 + 6
        with IOWorkerPool(1) as pool, RestoreExecutor(pool, inflight=9) as executor:
            assert executor.inflight == 9  # explicit inflight wins

    def test_executor_validates_max_concurrent(self):
        with pytest.raises(ConfigError):
            RestoreExecutor(1, max_concurrent_restores=0)

    def test_executor_shared_pool_not_closed(self):
        with IOWorkerPool(1) as pool:
            executor = RestoreExecutor(pool)
            executor.close()  # does not own the pool
            assert not pool.closed
