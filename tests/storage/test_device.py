"""Tests for the simulated storage devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError, StateError
from repro.simulator.hardware import HOST_DRAM, PM9A3, SSDSpec
from repro.storage.device import StorageDevice


@pytest.fixture
def ssd():
    return StorageDevice(PM9A3, 0)


class TestReadWrite:
    def test_roundtrip_exact(self, ssd):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        ssd.write("k", data)
        out = ssd.read("k")
        assert np.array_equal(out, data)

    def test_write_copies_payload(self, ssd):
        """Mutating the source buffer must not corrupt stored state —
        the reason for the snapshot in two-stage saving (§4.2.2)."""
        data = np.zeros((4, 4), dtype=np.float32)
        ssd.write("k", data)
        data[:] = 99.0
        out = ssd.read("k")
        assert np.all(out == 0.0)

    def test_read_returns_copy(self, ssd):
        ssd.write("k", np.zeros((2, 2), dtype=np.float32))
        out = ssd.read("k")
        out[:] = 5.0
        again = ssd.read("k")
        assert np.all(again == 0.0)

    def test_double_write_rejected(self, ssd):
        ssd.write("k", np.zeros(4, dtype=np.float32))
        with pytest.raises(StateError):
            ssd.write("k", np.ones(4, dtype=np.float32))

    def test_missing_read_rejected(self, ssd):
        with pytest.raises(StateError):
            ssd.read("absent")

    def test_delete_frees_bytes(self, ssd):
        data = np.zeros(1024, dtype=np.float32)
        ssd.write("k", data)
        assert ssd.used_bytes == data.nbytes
        freed = ssd.delete("k")
        assert freed == data.nbytes
        assert ssd.used_bytes == 0

    def test_delete_missing_rejected(self, ssd):
        with pytest.raises(StateError):
            ssd.delete("absent")

    def test_contains(self, ssd):
        assert "k" not in ssd
        ssd.write("k", np.zeros(1, dtype=np.float32))
        assert "k" in ssd


class TestCapacityAndTiming:
    def test_capacity_enforced(self):
        small = SSDSpec("tiny", read_bandwidth=1e9, write_bandwidth=1e9, capacity_bytes=100)
        dev = StorageDevice(small, 0)
        with pytest.raises(AllocationError):
            dev.write("k", np.zeros(200, dtype=np.uint8))

    def test_every_op_adds_busy_time(self, ssd):
        ssd.write("k", np.zeros(1024, dtype=np.float32))
        written = ssd.busy_seconds
        assert written > 0
        ssd.read("k")
        assert ssd.busy_seconds > written

    def test_read_faster_than_write_on_ssd(self, ssd):
        ssd.write("k", np.zeros(10**6, dtype=np.uint8))
        write_s = ssd.busy_seconds
        ssd.read("k")
        assert ssd.busy_seconds - write_s < write_s

    def test_busy_time_accumulates(self, ssd):
        before = ssd.busy_seconds
        ssd.write("k", np.zeros(1024, dtype=np.float32))
        ssd.read("k")
        assert ssd.busy_seconds > before

    def test_op_counts(self, ssd):
        ssd.write("a", np.zeros(1, dtype=np.float32))
        ssd.write("b", np.zeros(1, dtype=np.float32))
        ssd.read("a")
        assert ssd.op_counts == (1, 2)

    def test_dram_device_works(self):
        dev = StorageDevice(HOST_DRAM, 0)
        dev.write("k", np.ones(16, dtype=np.float32))
        assert np.all(dev.read("k") == 1.0)
        assert dev.busy_seconds > 0

    def test_name_includes_id(self, ssd):
        assert ssd.name == "PM9A3#0"
