"""A failed restore costs its own round, and the loop says so.

Two sessions serve a 150-token round, are evicted, and submit a second
round; the second round's restore fails for some of them.  Whichever
way the restores run — inline on the stepping thread or as one burst on
a :class:`~repro.runtime.RestoreExecutor` — and in either session order:

- each failure is raised by exactly one step;
- a session whose restore succeeded is still handed to the loop and
  finishes its round with the oracle's tokens;
- once nothing is left to run, every further step raises the typed
  :class:`~repro.errors.StateError` (a restore the loop still waits for
  is in flight nowhere), instead of returning idle forever.

Per-request failure — retiring the failed round so that the loop goes
idle cleanly — is not this file's contract.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, ServingFrontend, ServingRequest
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import DeviceFault, RestorationError, StateError
from repro.runtime import RestoreExecutor
from repro.storage.faults import FaultPolicy
from repro.storage.manager import StorageManager

PROMPT_TOKENS = 150
N_OUT = 3
#: Checked steps driven after the first failure; a loop that idles
#: instead of raising would return from every one of them.
STEPS_AFTER_FAILURE = 50
JOIN_S = 20.0


def fail_every_read(storage):
    """Every device of the array dies, read-side."""
    for device in storage.array.devices:
        device.fault_policy = FaultPolicy(fail_reads_from=1)


def fail_reads_of_b(storage):
    """The reads of session ``b`` fail; every other context reads fine."""
    real_read = storage.read_granule_into

    def read_granule_into(context_id, spec, out):
        if context_id == "b":
            raise DeviceFault(f"injected read fault for {context_id!r}")
        real_read(context_id, spec, out)

    storage.read_granule_into = read_granule_into


VARIANTS = [
    pytest.param(fail_every_read, ("a", "b"), {"a", "b"}, pooled, id=f"every-read-{mode}")
    for pooled, mode in ((False, "inline"), (True, "executor"))
] + [
    pytest.param(fail_reads_of_b, order, {"b"}, pooled, id=f"b-only-{''.join(order)}-{mode}")
    for pooled, mode in ((False, "inline"), (True, "executor"))
    for order in (("a", "b"), ("b", "a"))
]


@pytest.mark.parametrize("inject, order, failing, pooled", VARIANTS)
def test_a_failed_restore_strands_no_other_session_and_the_loop_stays_loud(
    tiny_model, tiny_config, default_platform, serve_rounds, reference_rounds,
    inject, order, failing, pooled,
):
    rng = np.random.default_rng(91)
    first = {s: rng.integers(0, tiny_config.vocab_size, size=PROMPT_TOKENS) for s in order}
    second = {s: rng.integers(0, tiny_config.vocab_size, size=6) for s in order}
    storage = StorageManager(build_storage_array(default_platform))
    with RestoreExecutor(2) if pooled else nullcontext() as executor:
        engine = NumericServingEngine(
            tiny_model, HCacheEngine(tiny_model, storage), executor=executor
        )
        serve_rounds(engine, list(first.items()), N_OUT)
        for session_id in order:
            engine.evict(session_id)
        inject(storage)
        frontend = ServingFrontend(
            engine, MemoryBudget(capacity_tokens=1 << 20), overlap_restores=False
        )
        handles = {
            s: frontend.submit(
                ServingRequest(session_id=s, prompt_tokens=p, max_new_tokens=N_OUT)
            )
            for s, p in second.items()
        }

        outcomes = []
        while not outcomes:
            try:
                assert frontend._checked_step().has_work
            except DeviceFault as error:
                outcomes.append(type(error))
        for _ in range(STEPS_AFTER_FAILURE):
            try:
                stats = frontend._checked_step()
            except (DeviceFault, StateError) as error:
                outcomes.append(type(error))
            else:
                outcomes.append("work" if stats.has_work else "idle")

    assert "idle" not in outcomes
    assert outcomes.count(DeviceFault) == len(failing)
    first_typed = outcomes.index(StateError)
    assert DeviceFault not in outcomes[first_typed:] and "work" not in outcomes[first_typed:]
    for session_id in order:
        if session_id in failing:
            assert not handles[session_id].finished
            assert not engine.session(session_id).on_gpu
            assert engine.history_length(session_id) == PROMPT_TOKENS + N_OUT
        else:
            expected = reference_rounds(
                tiny_model, [first[session_id], second[session_id]], N_OUT
            )[1]
            assert list(handles[session_id].result().tokens) == expected


# ---------------------------------------------------------------------------
# a failed restore gives its slab back
# ---------------------------------------------------------------------------

#: The cache size both the failed restore and its retry reserve: one size class.
RESERVE = 256
SLAB_MODES = ["inline", "pool2", "pool2-early-step", "pool2-early-evict"]


@pytest.mark.parametrize("mode", SLAB_MODES)
def test_a_failed_restore_gives_its_slab_back(
    tiny_model, tiny_config, default_platform, serve_rounds, mode
):
    """However the failure surfaces — raised by ``finished_restores``, by
    the iteration of a session released while its restore streams, or by
    its eviction — the failed restore's slab is back in the arena, and
    the retried restore takes it instead of allocating one.  An inline
    restore has ended before it can be reported, so it has no early mode."""
    rng = np.random.default_rng(58)
    storage = StorageManager(build_storage_array(default_platform))
    last = tiny_config.n_layers - 1
    fault, gate = threading.Event(), threading.Event()
    real_read = storage.read_granule_into

    def read_granule_into(context_id, spec, out):
        if fault.is_set() and spec.layer == last:
            assert gate.wait(JOIN_S), "the last layer's reads were never released"
            raise DeviceFault(f"injected layer-{last} read fault")
        real_read(context_id, spec, out)

    storage.read_granule_into = read_granule_into
    early = mode.startswith("pool2-early")
    with RestoreExecutor(2) if mode != "inline" else nullcontext() as executor:
        engine = NumericServingEngine(
            tiny_model, HCacheEngine(tiny_model, storage), executor=executor
        )
        serve_rounds(engine, [("r", rng.integers(0, tiny_config.vocab_size, PROMPT_TOKENS))], 3)
        engine.evict("r")
        arena = engine.hcache.arena
        fault.set()
        if not early:
            gate.set()
        try:
            engine.start_restores({"r": RESERVE}, background=early)
            if not early:
                with pytest.raises(DeviceFault):
                    engine.finished_restores()
            else:
                progress = engine._restoring["r"]
                for layer in range(last):
                    progress.wait_layer(layer)
                engine._prefill_s = 3600.0
                assert engine.finished_restores() == ["r"] and engine.early_releases == 1
                gate.set()
                if mode == "pool2-early-step":
                    with pytest.raises(RestorationError, match="outstanding"):
                        engine.execute_iteration([("r", np.array([1, 2, 3]))])
                else:
                    with pytest.raises(DeviceFault):
                        engine.evict("r")
        finally:
            gate.set()
        assert not engine.session("r").on_gpu and not engine._restoring
        assert arena.held_bytes > 0
        allocations = arena.allocations
        fault.clear()
        engine.start_restores({"r": RESERVE}, background=False)
        assert engine.finished_restores() == ["r"]
        assert arena.allocations == allocations and arena.held_bytes == 0
        restored = engine.session("r").kv_cache
        assert restored.equals(engine.hcache.restore("r"), atol=0.0)
