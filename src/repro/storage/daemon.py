"""Host flush daemon model (§4.2.2, §5).

The real system runs 8 background host threads that collect hidden states
snapshotted from the GPU, pack them into chunk buffers, and flush full
chunks to NVMe.  For the performance model, the daemon is a work-conserving
server with a byte backlog: snapshots enqueue bytes at some simulation
time, and the backlog drains at the array's write bandwidth.  Saving stalls
the GPU only if the host-side staging buffer would overflow — which, per
the paper's measurements (§6.3.3), never happens because decode-phase
hidden-state production is far below PCIe and SSD write bandwidth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class SnapshotOutcome:
    """Result of offering a snapshot to the daemon.

    Attributes:
        stall_seconds: GPU-visible stall caused by staging-buffer pressure.
        backlog_bytes: Daemon backlog immediately after the snapshot.
    """

    stall_seconds: float
    backlog_bytes: int


class FlushDaemon:
    """Work-conserving background flusher with a bounded staging buffer.

    Models only what the saving ablation (Fig. 14) reads: the staging
    backlog, its drain at the write bandwidth, and the stall a snapshot
    pays when the buffer would overflow.  Durability is not modelled
    here; the real save path's loss window is the host tail rows
    ``StorageManager.seal_context`` has not yet flushed (every journal
    record is fsynced as it is appended).
    """

    def __init__(self, write_bandwidth: float, staging_bytes: int = 4 * 1024**3) -> None:
        if write_bandwidth <= 0:
            raise ConfigError("daemon write bandwidth must be positive")
        if staging_bytes <= 0:
            raise ConfigError("staging buffer must be positive")
        self.write_bandwidth = float(write_bandwidth)
        self.staging_bytes = int(staging_bytes)
        self._lock = threading.Lock()
        self._backlog = 0.0  # guarded-by: _lock
        self._last_time = 0.0  # guarded-by: _lock
        self._total_flushed = 0.0  # guarded-by: _lock
        self._total_stall = 0.0  # guarded-by: _lock

    @property
    def backlog_bytes(self) -> int:
        with self._lock:
            return int(self._backlog)

    @property
    def total_flushed_bytes(self) -> int:
        with self._lock:
            return int(self._total_flushed)

    @property
    def total_stall_seconds(self) -> float:
        with self._lock:
            return self._total_stall

    def _advance_locked(self, now: float) -> None:  # holds: _lock
        if now < self._last_time - 1e-12:
            raise SimulationError("daemon time moved backwards")
        elapsed = max(0.0, now - self._last_time)
        drained = min(self._backlog, elapsed * self.write_bandwidth)
        self._backlog -= drained
        self._total_flushed += drained
        self._last_time = max(self._last_time, now)

    def advance(self, now: float) -> None:
        """Drain the backlog up to simulation time ``now``."""
        with self._lock:
            self._advance_locked(now)

    def snapshot(self, nbytes: int, now: float) -> SnapshotOutcome:
        """Accept ``nbytes`` of snapshotted states at time ``now``.

        If the staging buffer cannot absorb the snapshot, the GPU stalls for
        exactly the time the daemon needs to free enough space.  The whole
        accept — drain, stall computation, enqueue — happens under one lock
        acquisition, so concurrent snapshots serialize instead of both
        claiming the same free staging space.
        """
        if nbytes < 0:
            raise ConfigError("snapshot size must be non-negative")
        with self._lock:
            self._advance_locked(now)
            overflow = self._backlog + nbytes - self.staging_bytes
            stall = 0.0
            if overflow > 0:
                stall = overflow / self.write_bandwidth
                self._advance_locked(now + stall)
            self._backlog += nbytes
            self._total_stall += stall
            return SnapshotOutcome(
                stall_seconds=stall, backlog_bytes=int(self._backlog)
            )

    def drain_time(self) -> float:
        """Seconds needed to flush the current backlog completely."""
        with self._lock:
            return self._backlog / self.write_bandwidth
