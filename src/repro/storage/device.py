"""Simulated storage devices holding real chunk payloads.

Each device is both *functional* (it stores the actual bytes/arrays so the
numeric engine can round-trip hidden states exactly) and *timed* (every
read and write is priced by the device's :class:`SSDSpec`, and the device
accumulates the modelled seconds and the operation counts — ``busy_seconds``
and ``op_counts`` are the one record of its IO).

Devices can additionally **emulate** their modelled latency as real wall
clock: with a :class:`LatencyEmulator` attached, every operation sleeps its
modelled seconds before returning.  Sleeps release the GIL and burn no
CPU, so a background IO worker "reading" from an emulated device
genuinely overlaps the consumer's projection compute — which is how the
threaded restore executor (:mod:`repro.runtime`) turns the §4.1 pipeline
into measurable wall-clock overlap even on machines whose memcpy-speed
simulated reads would otherwise be nearly free.

Devices are safe to read from multiple threads concurrently: payloads are
immutable snapshots and the accounting counters are lock-guarded.  Writes
may not race reads of the same key (the storage manager's save/restore
lifecycle never does that for a live context).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable

import numpy as np

from repro.errors import AllocationError, ConfigError, StateError
from repro.simulator.hardware import SSDSpec
from repro.storage.faults import FaultPolicy

#: Smallest real sleep the emulator issues, in seconds: modelled debt is
#: batched until it fills one quantum.
SLEEP_QUANTUM_S = 1e-3


class LatencyEmulator:
    """Turns modelled device seconds into real wall-clock delay.

    Python's ``time.sleep`` costs ~100 microseconds of overhead on a busy
    host, while a single simulated chunk read can be modelled at a few
    microseconds — sleeping per operation would overstate IO by an order
    of magnitude.  The emulator therefore accumulates modelled seconds as
    *debt* and sleeps it off in quanta of at least :data:`SLEEP_QUANTUM_S`:
    totals stay faithful to the model (within one quantum) while each
    actual sleep is long enough for the OS timer to honour it.

    One emulator is shared by every device of an array.  That matches how
    the restoration timing model (:mod:`repro.core.restoration`) charges
    all chunk reads to one serial IO stream:
    ``charge`` is thread-safe, and the sleeps themselves serialize on a
    dedicated lock, so even when several IO workers charge concurrently,
    emulated IO wall clock accumulates like the one serial stream the
    model costs — a bigger pool cannot "parallelize" the emulated device
    time, only hide it under compute.  (The debt bookkeeping lock is
    separate, so charging never blocks behind an in-progress sleep.)

    Sleeps are self-correcting: the OS overshoots short sleeps by tens of
    microseconds, so the emulator measures each sleep's *actual* duration
    and banks the overshoot as credit against future debt.  Cumulative
    emulated wall clock therefore tracks cumulative modelled seconds
    instead of drifting ~10% high with every quantum.
    """

    def __init__(self, sleep_fn: Callable[[float], None] = time.sleep) -> None:
        self._sleep = sleep_fn
        self._lock = threading.Lock()
        self._sleep_lock = threading.Lock()
        self._debt_s = 0.0  # guarded-by: _lock
        self._slept_s = 0.0  # guarded-by: _lock

    @property
    def pending_s(self) -> float:
        """Modelled seconds charged but not yet slept (below one quantum)."""
        with self._lock:
            return self._debt_s

    @property
    def slept_s(self) -> float:
        """Total modelled seconds already converted into real sleeps."""
        with self._lock:
            return self._slept_s

    def _sleep_off(self, take: float) -> None:
        # Every sleep serializes on one lock: the single-stream model.
        with self._sleep_lock:
            t0 = time.perf_counter()
            self._sleep(take)
            overshoot = (time.perf_counter() - t0) - take
        with self._lock:
            self._slept_s += take
            if overshoot > 0:
                self._debt_s -= overshoot

    def charge(self, seconds: float) -> None:
        """Add modelled seconds; sleep whenever the debt fills a quantum."""
        if seconds < 0:
            raise ConfigError("modelled seconds must be non-negative")
        with self._lock:
            self._debt_s += seconds
            if self._debt_s < SLEEP_QUANTUM_S:
                return
            take = self._debt_s
            self._debt_s = 0.0
        self._sleep_off(take)

    def flush(self) -> None:
        """Sleep off any positive remainder (end of a timed region)."""
        with self._lock:
            take = self._debt_s
            if take <= 0:
                return
            self._debt_s = 0.0
        self._sleep_off(take)


class StorageDevice:
    """One SSD or DRAM region storing chunk payloads.

    Payloads are immutable snapshots: arrays are copied on write so later
    mutation of the caller's buffer cannot corrupt stored state (the real
    system snapshots hidden states off reused GPU buffers for the same
    reason, §4.2.2).

    Reads from distinct threads are safe (stored arrays are never mutated
    and the busy/op counters are guarded by a lock); the restore executor
    relies on this to fetch chunks from worker threads.
    """

    def __init__(self, spec: SSDSpec, device_id: int) -> None:
        self.spec = spec
        self.device_id = device_id
        #: When set, every operation sleeps its modelled seconds for real.
        self.emulator: LatencyEmulator | None = None
        #: When set, every operation is gated by the scripted fault policy
        #: *before* touching any payload: a faulted write stores nothing, a
        #: faulted read moves nothing, and latency spikes add modelled
        #: seconds to the operation (see :mod:`repro.storage.faults`).
        self.fault_policy: FaultPolicy | None = None
        self._data: dict[Hashable, np.ndarray] = {}
        self._used_bytes = 0
        self._busy_seconds = 0.0  # guarded-by: _stats_lock
        self._reads = 0  # guarded-by: _stats_lock
        self._writes = 0  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"{self.spec.name}#{self.device_id}"

    @property
    def capacity_bytes(self) -> int:
        return self.spec.capacity_bytes

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def busy_seconds(self) -> float:
        """Cumulative modelled device busy time."""
        with self._stats_lock:
            return self._busy_seconds

    @property
    def op_counts(self) -> tuple[int, int]:
        """``(reads, writes)`` issued against this device."""
        with self._stats_lock:
            return self._reads, self._writes

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def _fault_gate(self, is_read: bool) -> float:
        """Consult the fault policy first; return extra modelled seconds.

        Raises:
            DeviceFault: when the policy scripts this operation to fail.
        """
        if self.fault_policy is None:
            return 0.0
        if is_read:
            return self.fault_policy.on_read(self.name)
        return self.fault_policy.on_write(self.name)

    def _account(self, seconds: float, is_read: bool) -> None:
        with self._stats_lock:
            self._busy_seconds += seconds
            if is_read:
                self._reads += 1
            else:
                self._writes += 1
        if self.emulator is not None:
            self.emulator.charge(seconds)

    def write(self, key: Hashable, payload: np.ndarray) -> None:
        """Store ``payload`` under ``key``.

        Raises:
            AllocationError: if the device would exceed its capacity.
            StateError: if ``key`` is already present (chunks are written
                once; appends rewrite under a new key).
            DeviceFault: if an attached fault policy scripts this write to
                fail — before anything is stored.
        """
        extra = self._fault_gate(is_read=False)
        if key in self._data:
            raise StateError(f"{self.name}: key {key!r} already written")
        nbytes = int(payload.nbytes)
        if self._used_bytes + nbytes > self.capacity_bytes:
            raise AllocationError(
                f"{self.name}: write of {nbytes} B exceeds capacity "
                f"({self._used_bytes}/{self.capacity_bytes} B used)"
            )
        self._data[key] = np.array(payload, copy=True)
        self._used_bytes += nbytes
        self._account(self.spec.write_time(nbytes) + extra, is_read=False)

    def read(self, key: Hashable) -> np.ndarray:
        """Return a copy of the stored payload."""
        extra = self._fault_gate(is_read=True)
        if key not in self._data:
            raise StateError(f"{self.name}: key {key!r} not present")
        payload = self._data[key]
        self._account(self.spec.read_time(int(payload.nbytes)) + extra, is_read=True)
        return np.array(payload, copy=True)

    def read_into(self, key: Hashable, out: np.ndarray) -> None:
        """Copy the stored payload directly into ``out`` (no intermediate).

        The restoration path preallocates one ``(n_tokens, width)`` layer
        destination and reads every chunk straight into its row slice —
        the functional analogue of a DMA into a pinned staging buffer.
        Safe to call from an IO worker thread: ``out`` must simply not be
        read by the consumer until this returns (the staging-slot
        ownership rule).  An injected :class:`~repro.errors.DeviceFault`
        fires before any copy, so ``out`` is untouched and a replication
        layer can retry the same slot against a mirror.
        """
        extra = self._fault_gate(is_read=True)
        if key not in self._data:
            raise StateError(f"{self.name}: key {key!r} not present")
        payload = self._data[key]
        if payload.shape != out.shape:
            raise StateError(
                f"{self.name}: destination shape {out.shape} mismatches "
                f"stored chunk {payload.shape}"
            )
        np.copyto(out, payload)
        self._account(self.spec.read_time(int(payload.nbytes)) + extra, is_read=True)

    def delete(self, key: Hashable) -> int:
        """Drop a payload, returning the bytes freed."""
        if key not in self._data:
            raise StateError(f"{self.name}: key {key!r} not present")
        nbytes = int(self._data.pop(key).nbytes)
        self._used_bytes -= nbytes
        return nbytes

    def keys(self) -> tuple[Hashable, ...]:
        return tuple(self._data)
