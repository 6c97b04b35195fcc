"""Per-layer hand-over between a streaming restore and the iteration (§4.1).

HCache restores layer by layer, and a prompt's prefill needs layer *L*'s
history only when its forward pass reaches layer *L*.  A
:class:`RestoreProgress` is the one object the two sides share: the
restore thread posts each layer as its last row lands, the stepping
thread waits per layer inside the packed kernel, and a restore that dies
wakes the waiter with a typed error.

Threading rules — the two threads share **no mutable cache metadata**:

- the restore thread keeps the :class:`~repro.models.kv_cache.KVCache`
  it planned and returns it with every layer at ``n_tokens``, exactly as
  a restore nobody stepped on;
- the stepping thread works on :attr:`RestoreProgress.step_cache`, a
  second handle over the *same row storage* with lengths of its own
  (:meth:`KVCache.landing_handle`): rows ``[0, n)`` are restore-written,
  rows ``>= n`` step-written, and the handle refuses to grow capacity
  while the restore still writes;
- :meth:`layer_landed` → :meth:`wait_layer` is the only happens-before
  edge between a layer's restored rows and the step that reads them.

Several restores may share one condition (the serving engine's), so one
waiter can block on "any of them moved".
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.errors import RestorationError, StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.models.kv_cache import KVCache


class RestoreProgress:
    """Which layers of one restore have landed, and whether it has ended.

    Args:
        context_id: The context being restored (for error messages).
        n_layers: Layers the restore will report, each exactly once.
        changed: Condition notified on every landing and at the end;
            its lock guards all state here.  Pass one condition to
            several restores to wait on all of them at once.
        clock: Monotonic seconds; injectable for deterministic tests.
    """

    def __init__(
        self,
        context_id: str,
        n_layers: int,
        changed: threading.Condition | None = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.context_id = context_id
        self.n_layers = n_layers
        self._changed = changed if changed is not None else threading.Condition()
        self._clock = clock
        self._landed = [False] * n_layers  # guarded-by: _changed
        self._n_landed = 0  # guarded-by: _changed
        self._started_at = 0.0  # guarded-by: _changed
        self._settled = False  # guarded-by: _changed
        self._error: BaseException | None = None  # guarded-by: _changed
        self._blocked_s = 0.0  # guarded-by: _changed
        self._step_cache: "KVCache | None" = None  # guarded-by: _changed

    # -- restore side ----------------------------------------------------

    def planned(self, cache: "KVCache", n_tokens: int) -> None:
        """The restore sized ``cache`` and is about to fill ``n_tokens`` rows."""
        handle = cache.landing_handle(n_tokens, self)
        with self._changed:
            self._started_at = self._clock()
            self._step_cache = handle

    def layer_landed(self, layer: int) -> None:
        """Layer ``layer``'s last row has been projected or installed."""
        with self._changed:
            if self._landed[layer]:
                raise StateError(f"layer {layer} of {self.context_id!r} landed twice")
            self._landed[layer] = True
            self._n_landed += 1
            self._changed.notify_all()

    def settle(self, future: "Future[KVCache]") -> None:
        """The restore returned or raised (a ``Future`` done-callback)."""
        error = CancelledError() if future.cancelled() else future.exception()
        with self._changed:
            self._settled = True
            self._error = error
            self._changed.notify_all()

    # -- stepping side ---------------------------------------------------

    @property
    def step_cache(self) -> "KVCache":
        """The stepping thread's handle over the restoring cache's rows."""
        with self._changed:
            if self._step_cache is None:
                raise StateError(f"restore of {self.context_id!r} has not planned its cache")
            return self._step_cache

    @property
    def settled(self) -> bool:
        with self._changed:
            return self._settled

    @property
    def failed(self) -> bool:
        with self._changed:
            return self._error is not None

    def remaining_s(self) -> float:
        """Predicted seconds until the last layer lands.

        ``elapsed x layers left / layers landed``: the restore streams
        equal-sized layers, so its pace so far is its pace to come.
        Infinite before the first layer, 0 once the restore has ended.
        """
        with self._changed:
            if self._settled:
                return 0.0
            if not self._n_landed:
                return float("inf")
            elapsed = self._clock() - self._started_at
            return elapsed * (self.n_layers - self._n_landed) / self._n_landed

    def wait_layer(self, layer: int) -> None:
        """Block until ``layer`` has landed; raise if the restore died first.

        Raises:
            RestorationError: the restore failed with this layer
                outstanding (chained to the restore's own exception).
        """
        with self._changed:
            if not self._landed[layer]:
                t0 = self._clock()
                while not (self._landed[layer] or self._settled):
                    self._changed.wait()
                self._blocked_s += self._clock() - t0
                if not self._landed[layer]:
                    raise RestorationError(
                        f"restore of {self.context_id!r} failed with layer "
                        f"{layer} outstanding"
                    ) from self._error

    @property
    def blocked_s(self) -> float:
        """Seconds :meth:`wait_layer` has spent blocked, all layers together."""
        with self._changed:
            return self._blocked_s
