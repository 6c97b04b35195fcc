"""Simulated storage devices whose chunk payloads live in files.

Each device is both *functional* and *timed*:

- **Functional.**  Every chunk payload is one file in the device's own
  directory, made at its first write with
  ``tempfile.mkdtemp(prefix="repro-dev…")`` under
  ``tempfile.gettempdir()`` (so ``TMPDIR`` decides where it goes, as for
  every temp file).  The device keeps only a small index in memory —
  key to ``(file path, shape, dtype)`` — so the emulated SSD's contents
  stay out of the serving process's heap, as on the paper's SSDs (§5).
  ``read_into`` is one ``os.preadv`` straight into the caller's staging
  slot.  A deleted key's file is overwritten by a later write instead of
  being unlinked — creating and unlinking a file per chunk costs the
  filesystem far more than rewriting one in place — so the directory
  never holds more files than the most keys held at once.  It is
  removed when the device is garbage-collected, or at interpreter exit.
- **Timed.**  Every read and write is priced by the device's
  :class:`SSDSpec`, and the device accumulates the modelled seconds and
  the operation counts — ``busy_seconds`` and ``op_counts`` are the one
  record of its IO.

Devices can additionally **emulate** their modelled latency as real wall
clock: with a :class:`LatencyEmulator` attached, every operation takes at
least its modelled seconds — the real file IO counts toward them, and
only the remainder is slept.  Sleeps release the GIL and burn no CPU, so
a background IO worker "reading" from an emulated device genuinely
overlaps the consumer's projection compute — which is how the threaded
restore executor (:mod:`repro.runtime`) turns the §4.1 pipeline into
measurable wall-clock overlap even on machines whose page-cache reads
would otherwise be nearly free.

Devices are safe to read from multiple threads concurrently: a file is
opened per operation, a live key's file is never rewritten, and the
accounting counters are lock-guarded.  Writes and deletes may not race
reads of the same key — a deleted key's file is the next write's (the
storage manager's save/restore lifecycle never does that for a live
context).  A failed file operation (an ``OSError``, or a
short read or write) raises :class:`~repro.errors.DeviceFault`, exactly
like a scripted fault, so a mirrored array fails over on it.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import os
import shutil
import tempfile
import threading
import time
import weakref
from typing import Callable, Hashable

import numpy as np

from repro.errors import AllocationError, ConfigError, DeviceFault, StateError
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

    Modelled seconds are a *floor* for an operation, not an extra on top
    of it: :meth:`run` times the operation itself and charges only its
    modelled seconds less that real time.  Real time that counts toward
    the charge without being slept — an operation's own duration, and
    the OS's overshoot of a sleep — is banked as :attr:`credited_s`, so
    ``slept_s + credited_s + pending_s`` always equals the seconds
    charged.

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
    and credits the overshoot against future debt.  Cumulative
    emulated wall clock therefore tracks cumulative modelled seconds
    instead of drifting ~10% high with every quantum.
    """

    def __init__(self, sleep_fn: Callable[[float], None] = time.sleep) -> None:
        self._sleep = sleep_fn
        self._lock = threading.Lock()
        self._sleep_lock = threading.Lock()
        self._debt_s = 0.0  # guarded-by: _lock
        self._slept_s = 0.0  # guarded-by: _lock
        self._credited_s = 0.0  # guarded-by: _lock

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

    @property
    def credited_s(self) -> float:
        """Charged seconds that real time covered without a sleep of ours."""
        with self._lock:
            return self._credited_s

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
                self._credited_s += overshoot

    def _charge(self, seconds: float, credited: float) -> None:
        if seconds < 0:
            raise ConfigError("modelled seconds must be non-negative")
        with self._lock:
            self._credited_s += credited
            self._debt_s += seconds - credited
            if self._debt_s < SLEEP_QUANTUM_S:
                return
            take = self._debt_s
            self._debt_s = 0.0
        self._sleep_off(take)

    def charge(self, seconds: float) -> None:
        """Add modelled seconds; sleep whenever the debt fills a quantum."""
        self._charge(seconds, 0.0)

    def run(self, seconds: float, op: Callable[..., None], *args: object) -> None:
        """Run ``op(*args)`` as an operation modelled at ``seconds``.

        The operation's real duration, up to ``seconds``, is credited;
        only the rest is charged as debt.  An operation that raises is
        charged nothing.
        """
        t0 = time.perf_counter()
        op(*args)
        real = time.perf_counter() - t0
        self._charge(seconds, min(real, seconds))

    def flush(self) -> None:
        """Sleep off any positive remainder (end of a timed region)."""
        with self._lock:
            take = self._debt_s
            if take <= 0:
                return
            self._debt_s = 0.0
        self._sleep_off(take)


def _write_file(path: str, payload: np.ndarray, reuse: bool) -> None:
    """Make ``payload``'s bytes the whole of ``path``; on failure leave no file.

    A new file is created ``O_EXCL``; a reused one (a deleted key's) is
    overwritten in place and cut to the payload's length.
    """
    data = np.ascontiguousarray(payload).reshape(-1).view(np.uint8)
    flags = os.O_WRONLY | os.O_CREAT | (0 if reuse else os.O_EXCL)
    try:
        fd = os.open(path, flags, 0o600)
    except OSError as exc:
        raise DeviceFault(f"cannot open chunk file {path}: {exc}") from exc
    try:
        try:
            written = os.write(fd, data)
            if reuse:
                os.ftruncate(fd, data.nbytes)
        finally:
            os.close(fd)
        if written != data.nbytes:
            raise OSError(errno.EIO, f"short write, {written} of {data.nbytes} B")
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise DeviceFault(f"write to {path} failed: {exc}") from exc


def _read_file(path: str, out: np.ndarray) -> None:
    """Fill the C-contiguous ``out`` from ``path`` with one ``preadv``."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            got = os.preadv(fd, [out], 0)
        finally:
            os.close(fd)
    except OSError as exc:
        raise DeviceFault(f"read of {path} failed: {exc}") from exc
    if got != out.nbytes:
        raise DeviceFault(f"short read of {path}: {got} of {out.nbytes} B")


class StorageDevice:
    """One SSD or DRAM region storing chunk payloads, one file per chunk.

    Payloads are immutable snapshots: a write copies the caller's bytes
    into the key's file, so later mutation of the caller's buffer cannot
    corrupt stored state (the real system snapshots hidden states off
    reused GPU buffers for the same reason, §4.2.2).  Only the index —
    key to ``(file path, shape, dtype)`` — lives in memory; file names
    come from a per-device counter, so keys of any hashable type work,
    and files of deleted keys are reused by later writes.

    Reads from distinct threads are safe (each opens its own descriptor,
    a live key's file is never rewritten, and the busy/op counters are
    guarded by a lock); the restore executor relies on this to fetch
    chunks from worker threads.
    """

    def __init__(self, spec: SSDSpec, device_id: int) -> None:
        self.spec = spec
        self.device_id = device_id
        #: When set, every operation takes at least its modelled seconds
        #: of real wall clock.
        self.emulator: LatencyEmulator | None = None
        #: When set, every operation is gated by the scripted fault policy
        #: *before* touching any payload: a faulted write stores nothing, a
        #: faulted read moves nothing, and latency spikes add modelled
        #: seconds to the operation (see :mod:`repro.storage.faults`).
        self.fault_policy: FaultPolicy | None = None
        #: Made on the first write: most devices built never store a chunk.
        self._dir: str | None = None
        self._file_names = itertools.count()
        #: Files of deleted keys, overwritten by later writes: a file is
        #: created only when none is free.
        self._free: list[str] = []
        self._data: dict[Hashable, tuple[str, tuple[int, ...], np.dtype]] = {}
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

    def _entry(self, key: Hashable) -> tuple[str, tuple[int, ...], np.dtype]:
        entry = self._data.get(key)
        if entry is None:
            raise StateError(f"{self.name}: key {key!r} not present")
        return entry

    def _new_file(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix=f"repro-dev{self.device_id}-")
            weakref.finalize(self, shutil.rmtree, self._dir, ignore_errors=True)
        return os.path.join(self._dir, str(next(self._file_names)))

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

    def _io(
        self, seconds: float, is_read: bool, op: Callable[..., None], *args: object
    ) -> None:
        """Run one file operation, then account its modelled seconds.

        With an emulator attached the operation takes at least
        ``seconds`` of wall clock; a failed operation is not accounted.
        """
        if self.emulator is None:
            op(*args)
        else:
            self.emulator.run(seconds, op, *args)
        with self._stats_lock:
            self._busy_seconds += seconds
            if is_read:
                self._reads += 1
            else:
                self._writes += 1

    def write(self, key: Hashable, payload: np.ndarray) -> None:
        """Store ``payload`` under ``key`` in a file of its own.

        The key enters the index only once every byte has landed.

        Raises:
            AllocationError: if the device would exceed its capacity.
            StateError: if ``key`` is already present (chunks are written
                once; appends rewrite under a new key).
            DeviceFault: if an attached fault policy scripts this write to
                fail — before anything is stored — or the file write fails
                (the file is removed).
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
        reuse = bool(self._free)
        path = self._free.pop() if reuse else self._new_file()
        self._io(self.spec.write_time(nbytes) + extra, False, _write_file, path, payload, reuse)
        self._data[key] = (path, payload.shape, payload.dtype)
        self._used_bytes += nbytes

    def read(self, key: Hashable) -> np.ndarray:
        """Return a fresh array filled from the stored payload."""
        extra = self._fault_gate(is_read=True)
        path, shape, dtype = self._entry(key)
        payload = np.empty(shape, dtype)
        self._io(self.spec.read_time(payload.nbytes) + extra, True, _read_file, path, payload)
        return payload

    def read_into(self, key: Hashable, out: np.ndarray) -> None:
        """Read the stored payload directly into ``out`` (no intermediate).

        The restoration path preallocates one ``(n_tokens, width)`` layer
        destination and reads every chunk straight into its row slice —
        the functional analogue of a DMA into a pinned staging buffer,
        here one ``os.preadv`` into ``out``'s memory.  ``out`` must match
        the stored shape and dtype and be C-contiguous and writeable;
        anything else raises :class:`~repro.errors.StateError` before any
        IO.  Safe to call from an IO worker thread: ``out`` must simply
        not be read by the consumer until this returns (the staging-slot
        ownership rule).  An injected :class:`~repro.errors.DeviceFault`
        fires before any IO, so ``out`` is untouched; a failed or short
        file read may leave ``out`` partly filled, and a replication
        layer retrying against a mirror overwrites the whole slot.
        """
        extra = self._fault_gate(is_read=True)
        path, shape, dtype = self._entry(key)
        flags = out.flags
        if out.shape != shape or out.dtype != dtype or not (flags.c_contiguous and flags.writeable):
            raise StateError(
                f"{self.name}: destination must be a writeable C-contiguous {dtype} "
                f"array of shape {shape}, got {out.dtype} {out.shape}"
            )
        self._io(self.spec.read_time(out.nbytes) + extra, True, _read_file, path, out)

    def delete(self, key: Hashable) -> int:
        """Drop a payload, returning the bytes freed.

        Its file stays, for a later write to overwrite.
        """
        path, shape, dtype = self._entry(key)
        del self._data[key]
        self._free.append(path)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self._used_bytes -= nbytes
        return nbytes

    def keys(self) -> tuple[Hashable, ...]:
        return tuple(self._data)
