"""Hardware descriptions used by the performance model.

The specs mirror Table 2 of the paper plus the storage devices of the default
testbed (Samsung PM9A3 enterprise SSDs, §6).  Every quantity is in SI base
units: bytes, seconds, FLOP/s, bytes/s.

The paper's evaluation spans five GPUs (A100, A30, RTX 4090, L20, H800) with
their FP16 peak FLOPS and host-to-GPU transmission speed, one SSD model, and
a host-DRAM storage backend used on cloud platforms.  :func:`platform_preset`
builds the named platforms used throughout the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

GIB = 1024**3
GB = 1000**3
TFLOPS = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """A single GPU's performance-relevant characteristics.

    Attributes:
        name: Marketing name, e.g. ``"A100"``.
        hbm_bytes: On-device memory capacity in bytes.
        peak_flops: Peak FP16 tensor throughput in FLOP/s (Table 2).
        pcie_bandwidth: Host-to-device transmission speed in bytes/s
            (Table 2's "Transmission Speed").
        hbm_bandwidth: Device memory bandwidth in bytes/s.  Decode iterations
            are weight-read bound, so this drives TBT.
        gemm_mfu: Model-FLOPS-utilization ceiling achieved by large,
            restoration-sized GEMMs on this GPU.  Calibrated against the
            paper's measurements: the A100 value makes the 13B schedule
            land on Table 3's "36 H + 4 KV", and the A30 value reproduces
            HCache-O trailing KV offload in the IO-sufficient ablation
            (§6.3.1).  Smaller-SM parts sustain lower utilization on the
            skinny K/V-projection GEMMs.
    """

    name: str
    hbm_bytes: int
    peak_flops: float
    pcie_bandwidth: float
    hbm_bandwidth: float
    gemm_mfu: float = 0.70

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.pcie_bandwidth <= 0:
            raise ConfigError(f"GPU {self.name!r} must have positive speeds")
        if self.hbm_bytes <= 0 or self.hbm_bandwidth <= 0:
            raise ConfigError(f"GPU {self.name!r} must have positive memory specs")


@dataclass(frozen=True)
class SSDSpec:
    """A storage device's performance characteristics: an SSD, or the
    host-DRAM region of a cloud platform (:data:`HOST_DRAM`).

    Attributes:
        name: Device model name.
        read_bandwidth: Sequential read bandwidth in bytes/s.
        write_bandwidth: Sequential write bandwidth in bytes/s.
        io_latency: Fixed per-I/O overhead in seconds for well-formed
            (chunk-sized) requests issued at moderate queue depth.
        small_write_latency: Latency of a small synchronous write, used by
            the DirectIO ablation (§6.3.3) where per-sequence hidden states
            are written without chunk coalescing.
        small_write_bandwidth: Streaming bandwidth achieved by small
            synchronous writes.
        capacity_bytes: Usable capacity.
    """

    name: str
    read_bandwidth: float
    write_bandwidth: float
    io_latency: float = 5e-6
    small_write_latency: float = 22e-6
    small_write_bandwidth: float = 1.0 * GB
    capacity_bytes: int = 4000 * GB

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigError(f"device {self.name!r} must have positive bandwidth")

    def read_time(self, nbytes: int, n_ios: int = 1) -> float:
        """Time to read ``nbytes`` issued as ``n_ios`` requests."""
        return n_ios * self.io_latency + nbytes / self.read_bandwidth

    def write_time(self, nbytes: int, n_ios: int = 1) -> float:
        """Time to write ``nbytes`` issued as ``n_ios`` chunk-sized requests."""
        return n_ios * self.io_latency + nbytes / self.write_bandwidth

    def small_write_time(self, nbytes: int) -> float:
        """Time of one small synchronous write (DirectIO path)."""
        return self.small_write_latency + nbytes / self.small_write_bandwidth


#: GPU presets from Table 2 of the paper.  HBM bandwidths come from the
#: public datasheets; they only affect decode (TBT) modelling.
GPUS: dict[str, GPUSpec] = {
    "A100": GPUSpec("A100", 40 * GIB, 312 * TFLOPS, 32 * GB, 1555 * GB, gemm_mfu=0.73),
    "A30": GPUSpec("A30", 24 * GIB, 165 * TFLOPS, 32 * GB, 933 * GB, gemm_mfu=0.55),
    "4090": GPUSpec("4090", 24 * GIB, 330 * TFLOPS, 32 * GB, 1008 * GB, gemm_mfu=0.65),
    "L20": GPUSpec("L20", 48 * GIB, 120 * TFLOPS, 32 * GB, 864 * GB, gemm_mfu=0.65),
    "H800": GPUSpec("H800", 80 * GIB, 990 * TFLOPS, 64 * GB, 3350 * GB, gemm_mfu=0.60),
}

#: The default testbed's SSD (§6: Samsung PM9A3, 6.9 GB/s read per device).
PM9A3 = SSDSpec(
    name="PM9A3",
    read_bandwidth=6.9 * GB,
    write_bandwidth=4.0 * GB,
)

#: Host DRAM as the storage backend of the cloud platforms (§6).  Reads are
#: limited by the GPU's transmission (PCIe/NVLink-C2C) speed, so the region
#: gets a bandwidth high enough never to be the bottleneck, plus a tiny
#: per-IO cost.  Its small-write figures are the SSD defaults, so the
#: DirectIO ablation prices a DRAM platform's writes as it does a PM9A3's.
HOST_DRAM = SSDSpec(
    name="host-dram",
    read_bandwidth=200 * GB,
    write_bandwidth=200 * GB,
    io_latency=1e-6,
    capacity_bytes=256 * GIB,
)


@dataclass(frozen=True)
class Platform:
    """A complete hardware platform: GPU(s) plus a storage backend.

    Attributes:
        gpu: The GPU spec (per device).
        n_gpus: Number of GPUs used with tensor parallelism.  Peak FLOPS and
            transmission bandwidth aggregate across GPUs (§5, multi-GPU
            support: each GPU fetches a disjoint shard of hidden states).
        storage: The devices hidden states and KV are stored on: the
            host's SSDs, or :data:`HOST_DRAM` (the default).
        gemm_efficiency: Optional override of the GPU's large-GEMM MFU
            ceiling; ``None`` (the default) uses ``gpu.gemm_mfu``.
        prefill_efficiency: MFU of a full prefill forward pass, lower than a
            single dense GEMM because of attention/softmax/norm overheads.
        iteration_overhead: Fixed per-iteration scheduling overhead of the
            serving engine, in seconds.
        kernel_overhead: Fixed per-layer kernel launch overhead, in seconds.
        request_overhead: Fixed per-request serving overhead (tokenization,
            scheduling, batching queue entry); part of every TTFT,
            including the ideal system's.
    """

    gpu: GPUSpec
    n_gpus: int = 1
    storage: tuple[SSDSpec, ...] = (HOST_DRAM,)
    gemm_efficiency: float | None = None
    prefill_efficiency: float = 0.55
    iteration_overhead: float = 2e-3
    kernel_overhead: float = 8e-6
    request_overhead: float = 30e-3

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ConfigError("n_gpus must be >= 1")
        if self.gemm_efficiency is not None and not 0 < self.gemm_efficiency <= 1:
            raise ConfigError("gemm_efficiency must be in (0, 1]")
        if not 0 < self.prefill_efficiency <= 1:
            raise ConfigError("prefill_efficiency must be in (0, 1]")
        if not self.storage:
            raise ConfigError("a platform needs at least one storage device")

    @property
    def gemm_eff(self) -> float:
        """Effective large-GEMM MFU ceiling for this platform."""
        if self.gemm_efficiency is not None:
            return self.gemm_efficiency
        return self.gpu.gemm_mfu

    @property
    def total_flops(self) -> float:
        """Aggregate FP16 FLOP/s across all GPUs."""
        return self.gpu.peak_flops * self.n_gpus

    @property
    def total_hbm_bandwidth(self) -> float:
        """Aggregate HBM bandwidth across all GPUs."""
        return self.gpu.hbm_bandwidth * self.n_gpus

    @property
    def storage_read_bandwidth(self) -> float:
        """Aggregate storage-to-GPU read bandwidth in bytes/s.

        Reads are capped by the transmission (PCIe) bandwidth of the GPUs;
        with 4x PM9A3 on an A100 the SSDs saturate PCIe, matching §6.2.2.
        """
        link = self.gpu.pcie_bandwidth * self.n_gpus
        return min(link, sum(device.read_bandwidth for device in self.storage))

    @property
    def storage_write_bandwidth(self) -> float:
        """Aggregate GPU/host-to-storage write bandwidth in bytes/s."""
        link = self.gpu.pcie_bandwidth * self.n_gpus
        return min(link, sum(device.write_bandwidth for device in self.storage))

    def with_ssds(self, count: int, spec: SSDSpec = PM9A3) -> "Platform":
        """Return a copy of this platform storing on ``count`` identical SSDs."""
        if count < 1:
            raise ConfigError("a platform needs at least one SSD")
        return replace(self, storage=(spec,) * count)


def platform_preset(name: str) -> Platform:
    """Build one of the named platforms used in the paper's evaluation.

    Supported names (case-insensitive):

    - ``"default"`` / ``"a100-4ssd"``: one A100 with 4x PM9A3 (the default
      testbed for 7B/13B models).
    - ``"a100x4-4ssd"``: four A100s with tensor parallelism and 4 SSDs (the
      OPT-30B testbed; one SSD per GPU).
    - ``"a100-dram"``, ``"a30-dram"``, ``"4090-dram"``, ``"l20-dram"``,
      ``"h800-dram"``: single GPU with the host-DRAM backend (Fig. 11a-c).
    - ``"h800x2-dram"``, ``"a100x4-dram"``: multi-GPU DRAM platforms
      (Fig. 11c).
    - ``"io-sufficient"``: A30 + 4 SSDs (Fig. 12).
    - ``"compute-sufficient"``: A100 + 1 SSD (Fig. 12).
    - ``"balanced"``: A100 + 4 SSDs (Fig. 12, used with the 13B model).
    """
    key = name.lower()
    presets: dict[str, Platform] = {
        "default": Platform(GPUS["A100"]).with_ssds(4),
        "a100-4ssd": Platform(GPUS["A100"]).with_ssds(4),
        "a100-1ssd": Platform(GPUS["A100"]).with_ssds(1),
        "a100x4-4ssd": Platform(GPUS["A100"], n_gpus=4).with_ssds(4),
        "a100-dram": Platform(GPUS["A100"]),
        "a30-dram": Platform(GPUS["A30"]),
        "4090-dram": Platform(GPUS["4090"]),
        "l20-dram": Platform(GPUS["L20"]),
        "h800-dram": Platform(GPUS["H800"]),
        "h800x2-dram": Platform(GPUS["H800"], n_gpus=2),
        "a100x4-dram": Platform(GPUS["A100"], n_gpus=4),
        "io-sufficient": Platform(GPUS["A30"]).with_ssds(4),
        "compute-sufficient": Platform(GPUS["A100"]).with_ssds(1),
        "balanced": Platform(GPUS["A100"]).with_ssds(4),
    }
    if key not in presets:
        raise ConfigError(f"unknown platform preset {name!r}; choose from {sorted(presets)}")
    return presets[key]
