"""Unit tests for the hardware specifications (Table 2)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simulator.hardware import (
    GB,
    GPUS,
    PM9A3,
    DRAMSpec,
    GPUSpec,
    Platform,
    SSDSpec,
    platform_preset,
)


class TestGPUSpecs:
    def test_table2_gpus_present(self):
        assert set(GPUS) == {"A100", "A30", "4090", "L20", "H800"}

    def test_a100_matches_table2(self):
        a100 = GPUS["A100"]
        assert a100.peak_flops == pytest.approx(312e12)
        assert a100.pcie_bandwidth == pytest.approx(32e9)
        assert a100.hbm_bytes == 40 * 1024**3

    def test_h800_has_fast_link(self):
        assert GPUS["H800"].pcie_bandwidth == pytest.approx(64e9)
        assert GPUS["H800"].peak_flops == pytest.approx(990e12)

    def test_flops_ordering_matches_table2(self):
        flops = [GPUS[n].peak_flops for n in ("L20", "A30", "A100", "4090", "H800")]
        assert flops == sorted(flops)

    def test_invalid_gpu_rejected(self):
        with pytest.raises(ConfigError):
            GPUSpec("bad", 1, -1.0, 1.0, 1.0)

    def test_zero_memory_rejected(self):
        with pytest.raises(ConfigError):
            GPUSpec("bad", 0, 1.0, 1.0, 1.0)


class TestSSDSpec:
    def test_pm9a3_read_bandwidth(self):
        assert PM9A3.read_bandwidth == pytest.approx(6.9e9)

    def test_read_time_includes_latency(self):
        t = PM9A3.read_time(6_900_000, n_ios=10)
        assert t == pytest.approx(10 * PM9A3.io_latency + 1e-3)

    def test_write_time_slower_than_read(self):
        nbytes = 100 * 1024 * 1024
        assert PM9A3.write_time(nbytes) > PM9A3.read_time(nbytes)

    def test_small_write_latency_dominates_small_io(self):
        t = PM9A3.small_write_time(8192)
        assert t > PM9A3.small_write_latency
        assert t < 2 * PM9A3.small_write_latency

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SSDSpec("bad", read_bandwidth=0, write_bandwidth=1)


class TestDRAMSpec:
    def test_dram_faster_than_any_ssd(self):
        dram = DRAMSpec()
        nbytes = 1024**3
        assert dram.read_time(nbytes) < PM9A3.read_time(nbytes)

    def test_symmetric_read_write(self):
        dram = DRAMSpec()
        assert dram.read_time(1000) == pytest.approx(dram.write_time(1000))


class TestPlatform:
    def test_default_testbed_has_four_ssds(self):
        plat = platform_preset("default")
        assert len(plat.ssds) == 4
        assert not plat.uses_dram_backend

    def test_four_ssds_saturate_a100_pcie(self):
        """§6.2.2: 4x PM9A3 (27.6 GB/s) is close to but under PCIe 32 GB/s."""
        plat = platform_preset("default")
        assert plat.storage_read_bandwidth == pytest.approx(4 * 6.9e9)
        assert plat.storage_read_bandwidth < plat.gpu.pcie_bandwidth

    def test_dram_backend_limited_by_pcie(self):
        plat = platform_preset("a100-dram")
        assert plat.uses_dram_backend
        assert plat.storage_read_bandwidth == pytest.approx(32e9)

    def test_n_gpus_aggregates(self):
        plat = platform_preset("a100x4-4ssd")
        assert plat.total_flops == pytest.approx(4 * 312e12)
        assert plat.total_hbm_bandwidth == pytest.approx(4 * 1555e9)

    def test_with_ssds_replaces_backend(self):
        plat = platform_preset("a100-dram").with_ssds(2)
        assert len(plat.ssds) == 2
        assert plat.storage_read_bandwidth == pytest.approx(2 * 6.9e9)

    def test_with_zero_ssds_means_dram(self):
        plat = platform_preset("default").with_ssds(0)
        assert plat.uses_dram_backend

    def test_negative_ssd_count_rejected(self):
        with pytest.raises(ConfigError):
            platform_preset("default").with_ssds(-1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            platform_preset("tpu-v5")

    def test_gemm_eff_defaults_to_gpu(self):
        plat = platform_preset("a100-dram")
        assert plat.gemm_eff == GPUS["A100"].gemm_mfu

    def test_gemm_eff_override(self):
        plat = Platform(GPUS["A100"], gemm_efficiency=0.5)
        assert plat.gemm_eff == 0.5

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigError):
            Platform(GPUS["A100"], gemm_efficiency=1.5)
        with pytest.raises(ConfigError):
            Platform(GPUS["A100"], prefill_efficiency=0.0)

    def test_write_bandwidth_below_read(self):
        plat = platform_preset("default")
        assert plat.storage_write_bandwidth < plat.storage_read_bandwidth

    def test_fig12_regime_presets(self):
        io_suf = platform_preset("io-sufficient")
        comp_suf = platform_preset("compute-sufficient")
        assert io_suf.gpu.name == "A30" and len(io_suf.ssds) == 4
        assert comp_suf.gpu.name == "A100" and len(comp_suf.ssds) == 1

    def test_gb_unit(self):
        assert GB == 1_000_000_000


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


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_bandwidths_respect_the_gpu_links(self, name):
        plat = platform_preset(name)
        assert platform_preset(name.upper()) == plat
        link = plat.gpu.pcie_bandwidth * plat.n_gpus
        assert plat.uses_dram_backend == (not plat.ssds)
        backend_read = (
            plat.dram.bandwidth
            if plat.uses_dram_backend
            else sum(ssd.read_bandwidth for ssd in plat.ssds)
        )
        assert plat.storage_read_bandwidth == pytest.approx(min(link, backend_read))
        assert plat.storage_write_bandwidth <= plat.storage_read_bandwidth
        assert plat.total_flops == pytest.approx(plat.gpu.peak_flops * plat.n_gpus)

    @pytest.mark.parametrize("n_gpus", [1, 2, 4, 8])
    def test_n_gpus_scales_compute_and_the_link(self, n_gpus):
        one = Platform(GPUS["A100"])
        many = Platform(GPUS["A100"], n_gpus=n_gpus)
        assert many.total_flops == pytest.approx(n_gpus * one.total_flops)
        assert many.total_hbm_bandwidth == pytest.approx(
            n_gpus * one.total_hbm_bandwidth
        )
        # The DRAM backend feeds every GPU's link until DRAM itself caps it.
        assert many.storage_read_bandwidth == pytest.approx(
            min(n_gpus * GPUS["A100"].pcie_bandwidth, many.dram.bandwidth)
        )

    def test_zero_gpus_rejected(self):
        with pytest.raises(ConfigError):
            Platform(GPUS["A100"], n_gpus=0)
