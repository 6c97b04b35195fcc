"""Threaded restores over a degraded replicated array (satellite of the
crash-safety PR): a primary failing mid-granule-stream must not change a
single restored byte, for every IO pool size, and a total device loss must
fail loudly without wedging the executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.errors import DeviceFault
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import FaultPolicy, StorageArray, StorageManager
from repro.storage import manager as manager_module

POOL_SIZES = [1, 2, 4]
N_TOKENS = 300  # several chunks per layer, with a partial tail

SPEC = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
               capacity_bytes=1 * GB)


@pytest.fixture(autouse=True)
def two_chunk_granules(monkeypatch):
    """Restores stream granules of two chunks, several per layer."""
    monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", 2)


@pytest.fixture(scope="module")
def saved_stack():
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=11)
    array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB, replication=2)
    engine = HCacheEngine(model, StorageManager(array))
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, config.vocab_size, size=N_TOKENS)
    engine.register_context("c")
    cache = KVCache(model.config)
    result = model.forward(tokens, cache, capture_hidden=True)
    for start in range(0, N_TOKENS, 37):
        stop = min(start + 37, N_TOKENS)
        engine.save_states(
            "c", [h[start:stop] for h in result.hidden_states],
            tokens[start:stop], kv_cache=cache,
        )
    engine.seal("c")
    return array, engine


def clear_faults(array):
    for i in range(len(array)):
        for role in ("primary", "mirror"):
            array.replica(i, role).fault_policy = None


@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_primary_failing_mid_stream_is_bit_exact(saved_stack, pool_size):
    array, engine = saved_stack
    clear_faults(array)
    healthy = engine.restore("c")
    degraded_before = array.degraded_reads
    # The primary of slot 0 dies partway through the granule stream: the
    # first few chunk reads succeed, everything after fails over.
    array.replica(0).fault_policy = FaultPolicy(fail_reads_from=3)
    try:
        with RestoreExecutor(pool=pool_size) as executor:
            restored = engine.restore("c", executor=executor)
    finally:
        clear_faults(array)
    assert array.degraded_reads > degraded_before
    for layer in range(engine.transformer.config.n_layers):
        k_h, v_h = healthy.get(layer)
        k_d, v_d = restored.get(layer)
        assert np.array_equal(k_h, k_d)
        assert np.array_equal(v_h, v_d)


@pytest.mark.parametrize("dead", [[1], [0, 1]], ids=["primary1", "all-primaries"])
def test_single_threaded_failover_matches_too(saved_stack, dead):
    array, engine = saved_stack
    clear_faults(array)
    healthy = engine.restore("c")
    degraded_before = array.degraded_reads
    for slot in dead:
        array.replica(slot).fault_policy = FaultPolicy.dead()
    try:
        restored = engine.restore("c")
    finally:
        clear_faults(array)
    assert array.degraded_reads > degraded_before
    assert healthy.equals(restored, atol=0.0)


def test_total_replica_loss_fails_loud_and_executor_survives(saved_stack):
    array, engine = saved_stack
    clear_faults(array)
    with RestoreExecutor(pool=2) as executor:
        array.replica(0).fault_policy = FaultPolicy.dead()
        array.replica(0, "mirror").fault_policy = FaultPolicy.dead()
        try:
            with pytest.raises(DeviceFault):
                engine.restore("c", executor=executor)
        finally:
            clear_faults(array)
        # Containment: the drain settled its in-flight reads, so the same
        # executor serves the next (healthy) restore correctly.
        healthy = engine.restore("c")
        retried = engine.restore("c", executor=executor)
        assert healthy.equals(retried)
