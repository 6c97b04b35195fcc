"""Tests for the round-robin storage array."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.simulator.hardware import HOST_DRAM, PM9A3, platform_preset
from repro.storage.array import StorageArray


@pytest.fixture
def four_ssds():
    return StorageArray([PM9A3] * 4, link_bandwidth=32e9)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            StorageArray([], link_bandwidth=32e9)

    def test_bad_link_rejected(self):
        with pytest.raises(ConfigError):
            StorageArray([PM9A3], link_bandwidth=0)

    def test_len(self, four_ssds):
        assert len(four_ssds) == 4


class TestPlacement:
    def test_round_robin(self, four_ssds):
        ids = [four_ssds.device_for(i).device_id for i in range(8)]
        assert ids == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_offset_rotates(self, four_ssds):
        ids = [four_ssds.device_for(0, offset=layer).device_id for layer in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_negative_index_rejected(self, four_ssds):
        with pytest.raises(ConfigError):
            four_ssds.device_for(-1)

    def test_functional_balance_with_rotation(self, four_ssds):
        """Writing 5 chunks per 'layer' with rotating offsets balances
        bytes across devices to within one chunk."""
        chunk = np.zeros((64, 128), dtype=np.float32)
        for layer in range(8):
            for idx in range(5):
                four_ssds.device_for(idx, offset=layer).write((layer, idx), chunk)
        used = four_ssds.used_bytes_per_device
        assert max(used) - min(used) <= chunk.nbytes


class TestTiming:
    CHUNK = 64 * 16384

    def test_large_read_capped_by_link(self):
        many = StorageArray([PM9A3] * 8, link_bandwidth=32e9)
        timing = many.layer_read_timing(256, self.CHUNK)
        assert timing.bottleneck == "link"
        assert timing.seconds == pytest.approx(256 * self.CHUNK / 32e9)

    def test_large_read_device_bound(self, four_ssds):
        timing = four_ssds.layer_read_timing(256, self.CHUNK)
        assert timing.bottleneck == "device"
        assert timing.seconds == pytest.approx(
            64 * PM9A3.io_latency + 256 * self.CHUNK / (4 * 6.9e9)
        )

    def test_more_devices_read_faster(self):
        one = StorageArray([PM9A3], link_bandwidth=32e9)
        four = StorageArray([PM9A3] * 4, link_bandwidth=32e9)
        chunk_bytes = 64 * 8192
        t1 = one.layer_read_timing(16, chunk_bytes).seconds
        t4 = four.layer_read_timing(16, chunk_bytes).seconds
        assert t4 < t1
        assert t1 / t4 == pytest.approx(4.0, rel=0.1)

    def test_zero_chunks_free(self, four_ssds):
        timing = four_ssds.layer_read_timing(0, 1024)
        assert timing.seconds == 0.0
        assert timing.nbytes == 0

    def test_link_bottleneck_detected(self):
        dram = StorageArray([HOST_DRAM], link_bandwidth=32e9)
        timing = dram.layer_read_timing(16, 64 * 8192)
        assert timing.bottleneck == "link"

    def test_device_bottleneck_detected(self, four_ssds):
        timing = four_ssds.layer_read_timing(16, 64 * 8192)
        assert timing.bottleneck == "device"

    def test_read_time_monotone_in_chunks(self, four_ssds):
        chunk = 64 * 8192
        times = [four_ssds.layer_read_timing(n, chunk).seconds for n in (1, 4, 16, 64)]
        assert times == sorted(times)

    def test_negative_chunk_bytes_rejected(self, four_ssds):
        with pytest.raises(ConfigError):
            four_ssds.layer_read_timing(16, -1)

    def test_negative_chunks_rejected(self, four_ssds):
        with pytest.raises(ConfigError):
            four_ssds.layer_read_timing(-1, 1024)

    def test_bandwidth_scaling_matches_fig11d(self):
        """Fig. 11d-f: KV-offload-style reads scale with the disk count."""
        chunk = 64 * 16384
        speeds = []
        for n in (1, 2, 4):
            arr = StorageArray([PM9A3] * n, link_bandwidth=32e9)
            speeds.append(1.0 / arr.layer_read_timing(256, chunk).seconds)
        assert speeds[1] / speeds[0] == pytest.approx(2.0, rel=0.05)
        assert speeds[2] / speeds[1] == pytest.approx(2.0, rel=0.05)


PRESET_NAMES = [
    "default",
    "a100-4ssd",
    "a100-1ssd",
    "a100x4-4ssd",
    "a100-dram",
    "a30-dram",
    "4090-dram",
    "l20-dram",
    "h800-dram",
    "h800x2-dram",
    "a100x4-dram",
    "io-sufficient",
    "compute-sufficient",
    "balanced",
]


class TestSerialReadModel:
    """Each device serves its share of a layer's chunks one IO at a time:
    every chunk read pays the device's per-IO latency, and the link caps
    what the devices deliver together."""

    CHUNK = 64 * 8192

    @pytest.mark.parametrize("n_chunks", [1, 5, 16, 257])
    @pytest.mark.parametrize("n_devices", [1, 2, 4, 8])
    def test_seconds_match_the_serial_formula(self, n_devices, n_chunks):
        array = StorageArray([PM9A3] * n_devices, link_bandwidth=32e9)
        timing = array.layer_read_timing(n_chunks, self.CHUNK)
        n_ios = math.ceil(n_chunks / n_devices)
        device_s = (
            n_ios * PM9A3.io_latency
            + n_chunks / n_devices * self.CHUNK / PM9A3.read_bandwidth
        )
        link_s = n_chunks * self.CHUNK / 32e9
        assert timing.n_chunks == n_chunks
        assert timing.nbytes == n_chunks * self.CHUNK
        assert timing.seconds == pytest.approx(max(device_s, link_s), rel=1e-12)
        assert timing.bottleneck == ("device" if device_s >= link_s else "link")

    @pytest.mark.parametrize("n_chunks", [1, 2, 8, 64])
    def test_every_read_pays_its_own_latency(self, n_chunks):
        """Latency-dominated reads do not overlap: ``n`` one-byte chunks on
        one device cost ``n`` IO latencies, not one."""
        array = StorageArray([PM9A3], link_bandwidth=32e9)
        timing = array.layer_read_timing(n_chunks, 1)
        expected = n_chunks * PM9A3.io_latency + n_chunks / PM9A3.read_bandwidth
        assert timing.seconds == pytest.approx(expected, rel=1e-12)
        assert timing.bottleneck == "device"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_arrays_never_beat_their_platform_bandwidth(self, name):
        platform = platform_preset(name)
        array = build_storage_array(platform)
        timing = array.layer_read_timing(64, self.CHUNK)
        floor = timing.nbytes / platform.storage_read_bandwidth
        assert timing.seconds >= floor * (1 - 1e-12)
        if timing.bottleneck == "link":
            assert timing.seconds == pytest.approx(timing.nbytes / array.link_bandwidth)
        else:
            assert timing.seconds >= timing.nbytes / array.link_bandwidth
