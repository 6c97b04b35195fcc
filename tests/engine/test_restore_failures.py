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

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, ServingFrontend, ServingRequest
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import DeviceFault, StateError
from repro.runtime import RestoreExecutor
from repro.storage.faults import FaultPolicy
from repro.storage.manager import StorageManager

PROMPT_TOKENS = 150
N_OUT = 3
#: Checked steps driven after the first failure; a loop that idles
#: instead of raising would return from every one of them.
STEPS_AFTER_FAILURE = 50


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
