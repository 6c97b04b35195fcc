"""Two-way replicated chunk storage with failover reads.

DéjàVu-style durability: since sealed state already streams to devices,
tolerating a device loss only needs each chunk written twice.  A
:class:`ReplicatedDevice` pairs a *primary* with a *mirror* and presents
the plain :class:`~repro.storage.device.StorageDevice` interface, so the
storage manager, the streamed restore path, and the threaded executor all
work unchanged over a replicated array:

- **Writes** go to the primary first, then the mirror; a chunk is
  considered durable when both copies exist (the manager journals it only
  after ``write`` returns).  A failed mirror write takes the primary's
  copy back out, so the pair never holds half a chunk and the same write
  can be retried.
- **Reads** try the primary and fall back to the mirror only on a
  :class:`~repro.errors.DeviceFault` — a real failure signal.  Logical
  errors (missing key, shape mismatch) propagate unchanged: they mean the
  caller is wrong, not the hardware.  Failovers are counted as
  ``degraded_reads`` in the device stats.
- **Timing**: mirrored writes charge both devices (and both contribute
  busy time); a degraded read charges the mirror.  The failed primary
  attempt costs nothing in the model — fault detection latency is not
  modelled.

Fault injection attaches to the replicas, not the wrapper: script
``device.primary.fault_policy`` (or ``.mirror``) to kill one copy.
"""

from __future__ import annotations

import threading
from typing import Hashable

import numpy as np

from repro.errors import DeviceFault
from repro.storage.device import LatencyEmulator, StorageDevice


class ReplicatedDevice:
    """A primary/mirror device pair behind the single-device interface."""

    def __init__(self, primary: StorageDevice, mirror: StorageDevice) -> None:
        self.primary = primary
        self.mirror = mirror
        self._stats_lock = threading.Lock()
        self._degraded_reads = 0  # guarded-by: _stats_lock

    # -- identity and capacity (the primary fronts the pair) -----------

    @property
    def spec(self):
        return self.primary.spec

    @property
    def device_id(self) -> int:
        return self.primary.device_id

    @property
    def name(self) -> str:
        return f"{self.primary.name}+{self.mirror.name}"

    @property
    def capacity_bytes(self) -> int:
        """Logical capacity: every byte must fit on both replicas."""
        return min(self.primary.capacity_bytes, self.mirror.capacity_bytes)

    @property
    def used_bytes(self) -> int:
        """Logical bytes stored (one replica's worth, not the sum)."""
        return max(self.primary.used_bytes, self.mirror.used_bytes)

    @property
    def busy_seconds(self) -> float:
        return self.primary.busy_seconds + self.mirror.busy_seconds

    @property
    def op_counts(self) -> tuple[int, int]:
        reads = self.primary.op_counts[0] + self.mirror.op_counts[0]
        writes = self.primary.op_counts[1] + self.mirror.op_counts[1]
        return reads, writes

    @property
    def degraded_reads(self) -> int:
        """Reads served by the mirror after a primary fault."""
        with self._stats_lock:
            return self._degraded_reads

    # -- latency emulation fans out to both replicas -------------------

    @property
    def emulator(self) -> LatencyEmulator | None:
        return self.primary.emulator

    @emulator.setter
    def emulator(self, emulator: LatencyEmulator | None) -> None:
        self.primary.emulator = emulator
        self.mirror.emulator = emulator

    # -- storage interface ---------------------------------------------

    def __contains__(self, key: Hashable) -> bool:
        return key in self.primary or key in self.mirror

    def keys(self) -> tuple[Hashable, ...]:
        merged = dict.fromkeys(self.primary.keys())
        merged.update(dict.fromkeys(self.mirror.keys()))
        return tuple(merged)

    def _note_degraded(self) -> None:
        with self._stats_lock:
            self._degraded_reads += 1

    def write(self, key: Hashable, payload: np.ndarray) -> None:
        """Write to primary then mirror; durable only when both succeed.

        A fault on either replica propagates: the caller must not journal
        a chunk whose mirrored copy does not exist (crash-consistency
        would silently drop to one replica).  When the mirror write
        fails, the primary's copy is deleted before the error re-raises,
        so the key is free for a retry and its bytes are not counted.
        """
        self.primary.write(key, payload)
        try:
            self.mirror.write(key, payload)
        except Exception:
            self.primary.delete(key)
            raise

    def read(self, key: Hashable) -> np.ndarray:
        try:
            return self.primary.read(key)
        except DeviceFault:
            self._note_degraded()
            return self.mirror.read(key)

    def read_into(self, key: Hashable, out: np.ndarray) -> None:
        """Fill ``out`` from the primary, failing over to the mirror.

        A faulted primary read never touches ``out`` (the fault gate fires
        before any copy), so retrying the same staging slot against the
        mirror is safe — including from the restore executor's IO worker
        threads; the degraded-read counter is lock-guarded.
        """
        try:
            self.primary.read_into(key, out)
        except DeviceFault:
            self._note_degraded()
            self.mirror.read_into(key, out)

    def delete(self, key: Hashable) -> int:
        """Drop every replica of a chunk, returning logical bytes freed."""
        freed = 0
        for replica in (self.primary, self.mirror):
            if key in replica:
                freed = max(freed, replica.delete(key))
        return freed
