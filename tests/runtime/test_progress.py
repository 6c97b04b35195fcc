"""`RestoreProgress`: the per-layer hand-over between a streaming restore
and the iteration — exactly-once landings, a prediction made of numbers
it already has, waiters that always wake (layer, completion or failure),
and the step-side cache handle (own lengths over shared rows)."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ConfigError, DeviceFault, RestorationError, StateError
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.runtime.progress import RestoreProgress

JOIN_S = 10.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def settled_future(error=None):
    future = Future()
    if error is None:
        future.set_result(None)
    else:
        future.set_exception(error)
    return future


def planned_progress(n_tokens=5, reserve=16, **kwargs):
    config = model_preset("tiny-llama")
    cache = KVCache(config)
    cache.reserve(reserve)
    progress = RestoreProgress("c", config.n_layers, **kwargs)
    progress.planned(cache, n_tokens)
    return config, cache, progress


class TestPrediction:
    def test_remaining_is_pace_so_far_times_layers_left(self):
        clock = FakeClock()
        _, _, progress = planned_progress(clock=clock)
        assert progress.remaining_s() == float("inf")  # no pace yet
        clock.now = 3.0
        progress.layer_landed(0)
        assert progress.remaining_s() == pytest.approx(3.0 * 3 / 1)
        clock.now = 4.0
        progress.layer_landed(2)  # stages finish layers in any order
        assert progress.remaining_s() == pytest.approx(4.0 * 2 / 2)
        clock.now = 7.0  # time passing without a landing only pushes it out
        assert progress.remaining_s() == pytest.approx(7.0 * 2 / 2)
        progress.layer_landed(1)
        progress.layer_landed(3)
        assert progress.remaining_s() == 0.0 and not progress.settled

    def test_an_ended_restore_has_nothing_remaining(self):
        for error in (None, DeviceFault("dead")):
            _, _, progress = planned_progress()
            progress.settle(settled_future(error))
            assert progress.settled and progress.remaining_s() == 0.0
            assert progress.failed == (error is not None)

    def test_a_layer_lands_once(self):
        _, _, progress = planned_progress()
        progress.layer_landed(1)
        with pytest.raises(StateError, match="landed twice"):
            progress.layer_landed(1)

    def test_step_cache_needs_a_plan(self):
        with pytest.raises(StateError, match="not planned"):
            RestoreProgress("c", 4).step_cache


class TestWaiting:
    def test_a_landed_layer_does_not_block(self):
        clock = FakeClock()
        _, _, progress = planned_progress(clock=clock)
        progress.layer_landed(2)
        progress.wait_layer(2)
        assert progress.blocked_s == 0.0

    def _waiter(self, progress, layer):
        outcome = []

        def run():
            try:
                progress.wait_layer(layer)
                outcome.append("landed")
            except RestorationError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, outcome

    def test_wakes_on_its_layer_and_accounts_the_block(self):
        clock = FakeClock()
        _, _, progress = planned_progress(clock=clock)
        thread, outcome = self._waiter(progress, 3)
        progress.layer_landed(0)  # someone else's layer: keeps waiting
        clock.now = 2.5
        progress.layer_landed(3)
        thread.join(JOIN_S)
        assert not thread.is_alive() and outcome == ["landed"]
        assert progress.blocked_s == pytest.approx(2.5)

    def test_a_failed_restore_wakes_the_waiter_with_a_typed_error(self):
        _, _, progress = planned_progress()
        progress.layer_landed(0)
        thread, outcome = self._waiter(progress, 2)
        fault = DeviceFault("every replica dead")
        progress.settle(settled_future(fault))
        thread.join(JOIN_S)
        assert not thread.is_alive()
        (error,) = outcome
        assert isinstance(error, RestorationError) and error.__cause__ is fault
        assert "layer 2 outstanding" in str(error)
        # A layer that did land before the failure is still readable.
        progress.wait_layer(0)

    def test_one_condition_wakes_a_waiter_on_any_of_several_restores(self):
        changed = threading.Condition()
        first = RestoreProgress("a", 2, changed)
        second = RestoreProgress("b", 2, changed)
        woke = threading.Event()

        def run():
            with changed:
                while not (first.settled or second.settled):
                    changed.wait()
            woke.set()

        thread = threading.Thread(target=run)
        thread.start()
        second.settle(settled_future())
        assert woke.wait(JOIN_S)
        thread.join(JOIN_S)
        assert not thread.is_alive()

    def test_stress_no_landing_is_lost_between_threads(self):
        """More threads than cores, a short switch interval: every waiter
        of every layer wakes, whatever order the landings arrive in."""
        n_layers, n_waiters = 24, 3
        progress = RestoreProgress("c", n_layers)
        woken = []
        lock = threading.Lock()

        def wait_for(layer):
            progress.wait_layer(layer)
            with lock:
                woken.append(layer)

        def land(layers):
            for layer in layers:
                progress.layer_landed(layer)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=wait_for, args=(layer,))
                for layer in range(n_layers)
                for _ in range(n_waiters)
            ]
            threads += [
                threading.Thread(target=land, args=(range(start, n_layers, 4),))
                for start in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(woken) == sorted(list(range(n_layers)) * n_waiters)
        assert progress.remaining_s() == 0.0


class TestStepHandle:
    def test_own_lengths_over_the_same_rows(self):
        config, cache, progress = planned_progress(n_tokens=5, reserve=16)
        handle = progress.step_cache
        assert handle is not cache and handle.landing is progress
        assert len(handle) == 5 and handle.capacity == cache.capacity
        # The restore side sizes and fills its own object ...
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, config.n_kv_heads, config.head_dim)).astype(np.float32)
        for layer in range(config.n_layers):
            k_view, v_view = cache.install_view(layer, 5)
            k_view[...], v_view[...] = rows, -rows
        # ... the step side appends behind it through the handle.
        new = rng.standard_normal((2, config.n_kv_heads, config.head_dim)).astype(np.float32)
        handle.append(0, new, new)
        assert handle.layer_len(0) == 7 and cache.layer_len(0) == 5 and len(cache) == 5
        keys, _ = handle.get(0)
        assert np.array_equal(keys[:5], rows) and np.array_equal(keys[5:], new)
        assert np.shares_memory(keys, cache.get(0)[0])
        handle.truncate(5)
        assert len(handle) == 5

    def test_refuses_to_grow_while_the_restore_writes(self):
        config, cache, progress = planned_progress(n_tokens=5, reserve=8)
        handle = progress.step_cache
        with pytest.raises(StateError, match="still landing"):
            handle.reserve(64)
        capacity = handle.capacity
        block = np.zeros(
            (capacity - 4, config.n_kv_heads, config.head_dim), dtype=np.float32
        )
        with pytest.raises(StateError, match="still landing"):
            handle.append(0, block, block)  # one row past the reserved capacity
        assert handle.layer_len(0) == 5 and handle.capacity == capacity
        for layer in range(config.n_layers):
            cache.install_view(layer, 5)
        progress.settle(settled_future())
        assert np.shares_memory(handle.get(1)[0], cache.get(1)[0])
        handle.reserve(64)  # the restore has ended: an ordinary cache now
        assert handle.capacity >= 64 and not np.shares_memory(
            handle.get(1)[0], cache.get(1)[0]
        )

    def test_a_handle_must_fit_the_reserved_rows(self):
        config = model_preset("tiny-llama")
        cache = KVCache(config)
        cache.reserve(4)
        with pytest.raises(ConfigError, match="do not fit"):
            cache.landing_handle(
                cache.capacity + 1, RestoreProgress("c", config.n_layers)
            )
