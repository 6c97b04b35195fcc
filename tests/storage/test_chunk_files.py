"""File-backed devices: torn chunk files, the heap, and the directory lifecycle.

Every chunk payload is one file in its device's private directory, so
damage a dict could never suffer — a truncated file, a flipped byte, a
file that cannot be read, a write that dies part-way — is real here.
These tests damage the files directly and check that each layer above
reacts as documented: recovery's audit raises ``RecoveryError``, a
mirrored read fails over bit-exactly, an unmirrored read raises
``DeviceFault``, and a failed write leaves nothing behind.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.errors import DeviceFault, RecoveryError
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import (
    ChunkKey,
    LatencyEmulator,
    ManifestJournal,
    StorageArray,
    StorageDevice,
    StorageManager,
)

SPEC = SSDSpec("t-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB,
               capacity_bytes=1 * GB)
WIDTH = 32
CHUNK_KEY = ChunkKey("ctx", 0, 0, "hidden")


def rows(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, WIDTH)).astype(np.float32)


def chunk_path(device: StorageDevice, key) -> str:
    return device._data[key][0]


def truncate(path: str) -> None:
    os.truncate(path, os.path.getsize(path) // 2)


def flip_byte(path: str) -> None:
    with open(path, "r+b") as f:
        f.seek(7)
        byte = f.read(1)[0]
        f.seek(7)
        f.write(bytes([byte ^ 0x01]))


def remove(path: str) -> None:
    os.unlink(path)


def make_directory(path: str) -> None:
    # Root can read any file whatever its mode; a directory in the
    # file's place is unreadable for everyone.
    os.unlink(path)
    os.mkdir(path)


READ_DAMAGE = [truncate, remove, make_directory]


def saved_manager(replication: int, n_rows: int = 128, journal=None):
    array = StorageArray([SPEC], link_bandwidth=8 * GB, replication=replication)
    manager = StorageManager(array, journal=journal)
    manager.register_context("ctx", n_layers=1, hidden_width=WIDTH)
    block = rows(n_rows)
    manager.append("ctx", 0, block)
    manager.journal_tokens("ctx", list(range(n_rows)))
    manager.seal_context("ctx")
    return array, manager, block


class TestTornFilesUnderRecovery:
    @pytest.mark.parametrize("damage", [truncate, flip_byte], ids=lambda f: f.__name__)
    def test_a_damaged_journaled_chunk_fails_the_audit(self, tmp_path, damage):
        journal = ManifestJournal(tmp_path)
        array, _, _ = saved_manager(1, journal=journal)
        journal.close()
        damage(chunk_path(array.replica(0), CHUNK_KEY))
        replay = ManifestJournal(tmp_path)
        try:
            with pytest.raises(RecoveryError, match="chunk"):
                StorageManager.recover(array, replay)
        finally:
            replay.close()

    def test_an_undamaged_store_recovers(self, tmp_path):
        journal = ManifestJournal(tmp_path)
        array, _, block = saved_manager(1, journal=journal)
        journal.close()
        replay = ManifestJournal(tmp_path)
        try:
            recovered = StorageManager.recover(array, replay)
            assert np.array_equal(recovered.load_layer("ctx", 0), block)
        finally:
            replay.close()


class TestTornFilesUnderRestore:
    @pytest.mark.parametrize("damage", READ_DAMAGE, ids=lambda f: f.__name__)
    def test_a_mirrored_read_fails_over_bit_exact(self, damage):
        array, manager, block = saved_manager(2)
        damage(chunk_path(array.replica(0), CHUNK_KEY))
        (spec, *_) = manager.granule_plan("ctx", [0], "hidden")
        out = np.full((spec.n_tokens, WIDTH), np.nan, dtype=np.float32)
        manager.read_granule_into("ctx", spec, out)
        np.testing.assert_allclose(out, block[spec.start : spec.stop], atol=0, rtol=0)
        assert array.degraded_reads == 1

    @pytest.mark.parametrize("damage", READ_DAMAGE, ids=lambda f: f.__name__)
    def test_an_unmirrored_read_raises_device_fault(self, damage):
        array, manager, _ = saved_manager(1)
        damage(chunk_path(array.replica(0), CHUNK_KEY))
        (spec, *_) = manager.granule_plan("ctx", [0], "hidden")
        out = np.empty((spec.n_tokens, WIDTH), dtype=np.float32)
        with pytest.raises(DeviceFault):
            manager.read_granule_into("ctx", spec, out)


class TestFailedWrites:
    @pytest.mark.parametrize("reuse", [False, True], ids=["new-file", "reused-file"])
    @pytest.mark.parametrize("failure", ["raises", "short"])
    def test_a_write_that_dies_part_way_leaves_nothing(self, monkeypatch, failure, reuse):
        device = StorageDevice(SPEC, 0)
        device.write("kept", rows(4))
        if reuse:
            device.write("gone", rows(64, 1))
            device.delete("gone")
        used, counts = device.used_bytes, device.op_counts
        real_write = os.write

        def dying_write(fd, data):
            if failure == "raises":
                real_write(fd, bytes(data)[:10])
                raise OSError(28, "No space left on device")
            return real_write(fd, bytes(data)[:10])

        monkeypatch.setattr(os, "write", dying_write)
        with pytest.raises(DeviceFault):
            device.write("torn", rows(64))
        monkeypatch.undo()
        assert "torn" not in device
        assert device.keys() == ("kept",)
        assert os.listdir(device._dir) == [os.path.basename(chunk_path(device, "kept"))]
        assert device.used_bytes == used
        assert device.op_counts == counts
        device.write("torn", rows(64))
        assert np.array_equal(device.read("torn"), rows(64))


class TestHeapAndLifecycle:
    def test_stored_chunks_stay_out_of_the_heap(self):
        device = StorageDevice(SPEC, 0)
        chunk = rows(64 * 16).reshape(64, 512)  # 128 KiB
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for index in range(64):
                device.write(index, chunk)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload_bytes = 64 * chunk.nbytes
        assert device.used_bytes == payload_bytes
        assert after - before < 0.05 * payload_bytes

    def test_read_into_allocates_nothing(self):
        device = StorageDevice(SPEC, 0)
        chunk = rows(64 * 16).reshape(64, 512)
        device.write("k", chunk)
        out = np.empty_like(chunk)
        device.read_into("k", out)  # warm any lazily built state
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            device.read_into("k", out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4096
        assert np.array_equal(out, chunk)

    def test_one_file_per_key_and_deleted_files_are_reused(self):
        device = StorageDevice(SPEC, 0)
        keys = ["a", ("b", 1), ChunkKey("c", 2, 3, "kv")]
        for seed, key in enumerate(keys):
            device.write(key, rows(8, seed))
        files = sorted(os.listdir(device._dir))
        assert len(files) == len(keys)
        assert sorted(os.path.basename(chunk_path(device, k)) for k in keys) == files
        freed = chunk_path(device, keys[1])
        device.delete(keys[1])
        assert keys[1] not in device
        # The next write overwrites the freed file, cut to its own length,
        # instead of creating one: never more files than keys held at once.
        device.write("d", rows(2, 9))
        assert chunk_path(device, "d") == freed
        assert os.path.getsize(freed) == rows(2).nbytes
        assert sorted(os.listdir(device._dir)) == files
        assert np.array_equal(device.read("d"), rows(2, 9))
        assert np.array_equal(device.read(keys[2]), rows(8, 2))

    def test_directory_goes_with_the_array(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB, replication=2)
        assert os.listdir(tmp_path) == []  # made by the first write, not before
        for device in array.devices:
            device.write("k", rows(8))
        directories = [
            array.replica(i, role)._dir for i in range(2) for role in ("primary", "mirror")
        ]
        assert all(os.path.dirname(d) == str(tmp_path) for d in directories)
        assert all(os.path.basename(d).startswith("repro-dev") for d in directories)
        del array, device
        gc.collect()
        assert os.listdir(tmp_path) == []


class TestEmulatorFloor:
    # One read of an 8x32 fp32 chunk is modelled at ~1 ms: the IO latency.
    SLOW_SPEC = SSDSpec("floor-ssd", read_bandwidth=1000 * GB, write_bandwidth=1000 * GB,
                        io_latency=1e-3, capacity_bytes=1 * GB)

    def emulated_device(self):
        device = StorageDevice(self.SLOW_SPEC, 0)
        device.write("k", rows(8))
        emulator = LatencyEmulator(sleep_fn=self.sleeps.append)
        device.emulator = emulator
        return device, emulator

    @pytest.fixture(autouse=True)
    def _sleeps(self):
        self.sleeps = []

    def test_a_slow_read_charges_no_extra_sleep(self, monkeypatch):
        device, emulator = self.emulated_device()
        real_preadv = os.preadv

        def slow_preadv(*args):
            time.sleep(2e-3)
            return real_preadv(*args)

        monkeypatch.setattr(os, "preadv", slow_preadv)
        out = np.empty((8, WIDTH), dtype=np.float32)
        device.read_into("k", out)
        emulator.flush()
        modelled = device.busy_seconds - self.SLOW_SPEC.write_time(out.nbytes)
        assert self.sleeps == []
        assert emulator.slept_s == 0.0
        assert emulator.credited_s == pytest.approx(modelled)
        assert emulator.slept_s + emulator.credited_s + emulator.pending_s == pytest.approx(
            modelled
        )
        assert np.array_equal(out, rows(8))

    def test_a_fast_read_sleeps_the_rest(self):
        device, emulator = self.emulated_device()
        out = np.empty((8, WIDTH), dtype=np.float32)
        for _ in range(3):
            device.read_into("k", out)
        emulator.flush()
        modelled = device.busy_seconds - self.SLOW_SPEC.write_time(out.nbytes)
        assert 0 < emulator.credited_s < modelled
        assert emulator.slept_s == pytest.approx(sum(self.sleeps))
        assert emulator.slept_s + emulator.credited_s + emulator.pending_s == pytest.approx(
            modelled
        )
