"""Tests for the flush daemon model (§4.2.2)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.storage.daemon import FlushDaemon


class TestSnapshots:
    def test_no_stall_under_capacity(self):
        daemon = FlushDaemon(write_bandwidth=16e9, staging_bytes=1 << 30)
        outcome = daemon.snapshot(10 << 20, now=0.0)
        assert outcome.stall_seconds == 0.0
        assert outcome.backlog_bytes == 10 << 20

    def test_backlog_drains_over_time(self):
        daemon = FlushDaemon(write_bandwidth=1e9)
        daemon.snapshot(1_000_000_000, now=0.0)
        daemon.advance(0.5)
        assert daemon.backlog_bytes == pytest.approx(500_000_000, rel=0.01)
        daemon.advance(2.0)
        assert daemon.backlog_bytes == 0

    def test_stall_on_staging_overflow(self):
        daemon = FlushDaemon(write_bandwidth=1e9, staging_bytes=1_000_000)
        daemon.snapshot(1_000_000, now=0.0)
        outcome = daemon.snapshot(500_000, now=0.0)
        assert outcome.stall_seconds == pytest.approx(0.0005)

    def test_decode_rate_never_stalls(self):
        """§6.3.3: decode-phase hidden-state production (~3 GB/s worst
        case) is far below the flush bandwidth — no stalls, ever."""
        daemon = FlushDaemon(write_bandwidth=16e9, staging_bytes=4 << 30)
        now = 0.0
        for _ in range(1000):
            outcome = daemon.snapshot(320 * 1024, now=now)  # 32-seq batch, 10KB each
            assert outcome.stall_seconds == 0.0
            now += 0.02  # one decode iteration
        assert daemon.total_stall_seconds == 0.0

    def test_total_flushed_accumulates(self):
        daemon = FlushDaemon(write_bandwidth=1e9)
        daemon.snapshot(1000, now=0.0)
        daemon.advance(1.0)
        assert daemon.total_flushed_bytes == 1000

    def test_drain_time(self):
        daemon = FlushDaemon(write_bandwidth=2e9)
        daemon.snapshot(1_000_000_000, now=0.0)
        assert daemon.drain_time() == pytest.approx(0.5)


class TestValidation:
    def test_time_backwards_rejected(self):
        daemon = FlushDaemon(write_bandwidth=1e9)
        daemon.advance(5.0)
        with pytest.raises(SimulationError):
            daemon.advance(1.0)

    def test_negative_snapshot_rejected(self):
        with pytest.raises(ConfigError):
            FlushDaemon(write_bandwidth=1e9).snapshot(-1, now=0.0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            FlushDaemon(write_bandwidth=0)
        with pytest.raises(ConfigError):
            FlushDaemon(write_bandwidth=1e9, staging_bytes=0)
