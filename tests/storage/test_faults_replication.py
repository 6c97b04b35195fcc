"""Tests for scripted fault injection and two-way replicated devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, DeviceFault, StateError
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import (
    FaultPolicy,
    ReplicatedDevice,
    StorageArray,
    StorageDevice,
    StorageManager,
)

SPEC = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
               capacity_bytes=1 * GB)


def payload(seed: int = 0, n: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 4)).astype(np.float32)


class TestFaultPolicy:
    def test_scripted_read_ordinals_fail_exactly(self):
        device = StorageDevice(SPEC, 0)
        device.fault_policy = FaultPolicy(fail_reads=[2])
        device.write("k", payload())
        device.read("k")
        with pytest.raises(DeviceFault):
            device.read("k")
        device.read("k")
        assert device.fault_policy.faults_injected == 1
        assert device.fault_policy.ops_seen == (3, 1)

    def test_fail_from_kills_every_later_op(self):
        device = StorageDevice(SPEC, 0)
        device.write("k", payload())
        device.fault_policy = FaultPolicy(fail_reads_from=2)
        device.read("k")
        for _ in range(3):
            with pytest.raises(DeviceFault):
                device.read("k")

    def test_dead_device_fails_reads_and_writes(self):
        device = StorageDevice(SPEC, 0)
        device.fault_policy = FaultPolicy.dead()
        with pytest.raises(DeviceFault):
            device.write("k", payload())
        assert "k" not in device  # the faulted write stored nothing
        with pytest.raises(DeviceFault):
            device.read("k")

    def test_faulted_read_into_leaves_destination_untouched(self):
        device = StorageDevice(SPEC, 0)
        device.write("k", payload())
        device.fault_policy = FaultPolicy(fail_reads=[1])
        out = np.full((8, 4), 7.0, dtype=np.float32)
        with pytest.raises(DeviceFault):
            device.read_into("k", out)
        assert np.all(out == 7.0)

    def test_latency_spikes_are_periodic_and_modelled(self):
        device = StorageDevice(SPEC, 0)
        device.write("k", payload())
        device.fault_policy = FaultPolicy(read_latency_spike_s=0.5, spike_every=2)
        busy = [device.busy_seconds]
        for _ in range(2):
            device.read("k")
            busy.append(device.busy_seconds)
        first, second = np.diff(busy)
        assert second == pytest.approx(first + 0.5)

    def test_ordinals_are_one_based(self):
        with pytest.raises(ConfigError):
            FaultPolicy(fail_reads=[0])
        with pytest.raises(ConfigError):
            FaultPolicy(fail_writes_from=0)


class TestReplicatedDevice:
    def make(self):
        return ReplicatedDevice(StorageDevice(SPEC, 0), StorageDevice(SPEC, 2))

    def test_write_lands_on_both_replicas(self):
        device = self.make()
        device.write("k", payload())
        assert "k" in device.primary and "k" in device.mirror
        assert device.primary.busy_seconds == device.mirror.busy_seconds > 0
        assert device.busy_seconds == pytest.approx(2 * device.primary.busy_seconds)

    def test_read_fails_over_to_mirror_and_counts(self):
        device = self.make()
        data = payload()
        device.write("k", data)
        device.primary.fault_policy = FaultPolicy.dead()
        out = np.empty_like(data)
        device.read_into("k", out)
        assert np.array_equal(out, data)
        got = device.read("k")
        assert np.array_equal(got, data)
        assert device.degraded_reads == 2

    def test_logical_errors_do_not_fail_over(self):
        device = self.make()
        with pytest.raises(StateError):
            device.read("missing")
        assert device.degraded_reads == 0

    def test_write_fault_propagates(self):
        """A chunk must never be journaled with only one surviving copy."""
        device = self.make()
        device.mirror.fault_policy = FaultPolicy.dead()
        with pytest.raises(DeviceFault):
            device.write("k", payload())

    def test_a_failed_mirror_write_takes_the_primary_copy_back(self):
        device = self.make()
        device.mirror.fault_policy = FaultPolicy(fail_writes=[1])
        with pytest.raises(DeviceFault):
            device.write("k", payload())
        assert "k" not in device
        assert device.primary.used_bytes == device.mirror.used_bytes == 0
        device.write("k", payload())
        assert np.array_equal(device.primary.read("k"), device.mirror.read("k"))

    def test_both_replicas_dead_propagates(self):
        device = self.make()
        device.write("k", payload())
        device.primary.fault_policy = FaultPolicy.dead()
        device.mirror.fault_policy = FaultPolicy.dead()
        with pytest.raises(DeviceFault):
            device.read("k")

    def test_delete_drops_both_copies(self):
        device = self.make()
        device.write("k", payload())
        freed = device.delete("k")
        assert freed > 0
        assert "k" not in device.primary and "k" not in device.mirror

    def test_keys_are_the_union(self):
        device = self.make()
        device.write("a", payload())
        device.mirror.write("b", payload(1))  # asymmetric leftover
        assert set(device.keys()) == {"a", "b"}
        assert "b" in device


class TestReplicatedArray:
    def test_replication_wraps_every_slot(self):
        array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB, replication=2)
        assert len(array) == 2
        assert all(isinstance(d, ReplicatedDevice) for d in array.devices)
        ids = {array.replica(i, role).device_id
               for i in range(2) for role in ("primary", "mirror")}
        assert ids == {0, 1, 2, 3}

    def test_replication_validated(self):
        with pytest.raises(ConfigError):
            StorageArray([SPEC], link_bandwidth=8 * GB, replication=3)

    def test_unreplicated_array_has_no_mirrors(self):
        array = StorageArray([SPEC], link_bandwidth=8 * GB)
        assert array.replica(0) is array.devices[0]
        with pytest.raises(ConfigError):
            array.replica(0, role="mirror")
        with pytest.raises(ConfigError):
            array.replica(5)

    def test_manager_survives_primary_loss_bit_exact(self):
        """The tentpole replication claim at the manager level: kill one
        primary after saving, reads stay bit-exact through the mirrors."""
        array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB, replication=2)
        manager = StorageManager(array)
        runs = [(0, "hidden"), (1, "hidden")]
        manager.register_context("ctx", n_layers=2, hidden_width=32, runs=runs)
        blocks = {layer: payload(layer, n=200)[:, :1].repeat(32, 1) for layer in range(2)}
        for layer, block in blocks.items():
            manager.append("ctx", layer, block)
        manager.seal_context("ctx")

        array.replica(0).fault_policy = FaultPolicy.dead()
        for layer, block in blocks.items():
            assert np.array_equal(manager.load_layer("ctx", layer), block)
        assert array.degraded_reads > 0

    def test_append_retries_after_a_mirror_write_fault(self):
        """A chunk write that faults on the mirror leaves nothing behind:
        the retried append lands, and both replicas hold the same bytes."""
        array = StorageArray([SPEC], link_bandwidth=8 * GB, replication=2)
        manager = StorageManager(array)
        manager.register_context("ctx", n_layers=1, hidden_width=32, runs=[(0, "hidden")])
        block = payload(0, n=64)[:, :1].repeat(32, 1)
        primary, mirror = array.replica(0), array.replica(0, "mirror")
        mirror.fault_policy = FaultPolicy(fail_writes=[1])
        with pytest.raises(DeviceFault):
            manager.append("ctx", 0, block)
        assert manager.tokens_stored("ctx", 0) == 0
        manager.append("ctx", 0, block)
        assert manager.tokens_stored("ctx", 0) == 64
        assert primary.keys() == mirror.keys()
        assert primary.used_bytes == mirror.used_bytes == block.nbytes
        for key in primary.keys():
            assert np.array_equal(primary.read(key), mirror.read(key))
        assert np.array_equal(manager.load_layer("ctx", 0), block)

    def test_healthy_replicated_reads_stay_primary(self):
        array = StorageArray([SPEC], link_bandwidth=8 * GB, replication=2)
        manager = StorageManager(array)
        manager.register_context("ctx", n_layers=1, hidden_width=32, runs=[(0, "hidden")])
        manager.append("ctx", 0, payload(0, n=64)[:, :1].repeat(32, 1))
        manager.load_layer("ctx", 0)
        assert array.degraded_reads == 0
        assert array.replica(0, "mirror").op_counts[0] == 0
