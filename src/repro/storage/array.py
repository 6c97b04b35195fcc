"""Round-robin storage array (§4.2.1).

Chunks of one layer are distributed over every device round-robin so a
layer read aggregates all devices' bandwidth, capped by the GPU's link
(PCIe) speed.  The array computes both functional placement (which device
holds chunk *i*) and the timing of a batched layer read, which is what the
restoration pipeline charges to the IO stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simulator.hardware import DRAMSpec, SSDSpec
from repro.storage.device import LatencyEmulator, StorageDevice
from repro.storage.replicated import ReplicatedDevice


@dataclass(frozen=True)
class LayerReadTiming:
    """Timing of reading all of one layer's chunks from the array.

    Attributes:
        n_chunks: Chunks read.
        nbytes: Total bytes moved.
        seconds: Wall-clock time: devices operate in parallel, each serving
            its share of chunks sequentially; the aggregate is additionally
            floored by the link bandwidth.
        bottleneck: ``"device"`` or ``"link"``.
    """

    n_chunks: int
    nbytes: int
    seconds: float
    bottleneck: str


class StorageArray:
    """A set of identical devices with round-robin chunk placement.

    With ``replication=2`` every round-robin slot becomes a
    :class:`~repro.storage.replicated.ReplicatedDevice` — a primary plus a
    same-spec mirror — so chunk writes are mirrored and reads fail over on
    an injected device fault.  Placement, striping, and the read-timing
    model are unchanged: a healthy replicated array performs exactly like
    an unreplicated one, paying only the doubled write traffic.
    """

    def __init__(
        self,
        specs: tuple[SSDSpec | DRAMSpec, ...] | list[SSDSpec | DRAMSpec],
        link_bandwidth: float,
        replication: int = 1,
    ) -> None:
        if not specs:
            raise ConfigError("storage array needs at least one device")
        if link_bandwidth <= 0:
            raise ConfigError("link bandwidth must be positive")
        if replication not in (1, 2):
            raise ConfigError("replication must be 1 (off) or 2 (mirrored)")
        primaries = [StorageDevice(spec, i) for i, spec in enumerate(specs)]
        if replication == 2:
            mirrors = [
                StorageDevice(spec, i + len(specs)) for i, spec in enumerate(specs)
            ]
            self.devices: list[StorageDevice | ReplicatedDevice] = [
                ReplicatedDevice(p, m) for p, m in zip(primaries, mirrors)
            ]
        else:
            self.devices = list(primaries)
        self.replication = replication
        self.link_bandwidth = float(link_bandwidth)
        self._emulator: LatencyEmulator | None = None

    # -- wall-clock latency emulation ----------------------------------

    @property
    def latency_emulator(self) -> LatencyEmulator | None:
        """The shared emulator, or ``None`` when emulation is off."""
        return self._emulator

    def emulate_latency(self, min_sleep_s: float = 1e-3) -> LatencyEmulator:
        """Make every device sleep its modelled seconds for real.

        All devices share one :class:`LatencyEmulator`: the timing model
        charges chunk reads to a single serial IO stream, and the shared
        debt keeps the emulated wall clock faithful to that.  Returns the
        emulator so callers can :meth:`LatencyEmulator.flush` at the end
        of a timed region.  Idempotent while already emulating with the
        same quantum.

        Raises:
            ConfigError: when already emulating with a different
                ``min_sleep_s`` — call :meth:`stop_latency_emulation` first.
        """
        if self._emulator is None:
            self._emulator = LatencyEmulator(min_sleep_s)
            for device in self.devices:
                device.emulator = self._emulator
        elif self._emulator.min_sleep_s != min_sleep_s:
            raise ConfigError(
                f"already emulating with a {self._emulator.min_sleep_s} s sleep "
                "quantum; stop_latency_emulation() before changing it"
            )
        return self._emulator

    def stop_latency_emulation(self) -> None:
        """Detach the emulator; operations become instant again."""
        self._emulator = None
        for device in self.devices:
            device.emulator = None

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def degraded_reads(self) -> int:
        """Failover reads served by mirrors across the whole array."""
        return sum(getattr(d, "degraded_reads", 0) for d in self.devices)

    def replica(self, index: int, role: str = "primary") -> StorageDevice:
        """The raw :class:`StorageDevice` behind round-robin slot ``index``.

        ``role`` picks ``"primary"`` or ``"mirror"`` on a replicated
        array; unreplicated arrays only have the primary.  This is the
        hook fault injection scripts use to fail one replica: set
        ``array.replica(i).fault_policy``.
        """
        if index < 0 or index >= len(self.devices):
            raise ConfigError(f"device index {index} out of range")
        if role not in ("primary", "mirror"):
            raise ConfigError(f"unknown replica role {role!r}")
        device = self.devices[index]
        if isinstance(device, ReplicatedDevice):
            return device.primary if role == "primary" else device.mirror
        if role == "mirror":
            raise ConfigError("array is not replicated; it has no mirrors")
        return device

    def device_for(self, chunk_index: int, offset: int = 0) -> "StorageDevice | ReplicatedDevice":
        """Round-robin placement: chunk ``i`` lives on device ``(i + offset) mod n``.

        The ``offset`` (the storage manager passes the layer index) rotates
        each layer's starting device so partial chunk rounds do not pile
        onto device 0 layer after layer — keeping per-device bytes balanced
        to within one chunk per layer run.
        """
        if chunk_index < 0:
            raise ConfigError("chunk index must be non-negative")
        return self.devices[(chunk_index + offset) % len(self.devices)]

    @property
    def used_bytes_per_device(self) -> list[int]:
        return [d.used_bytes for d in self.devices]

    @property
    def total_used_bytes(self) -> int:
        return sum(self.used_bytes_per_device)

    def _device_read_bw(self, device: "StorageDevice | ReplicatedDevice") -> float:
        spec = device.spec
        return getattr(spec, "read_bandwidth", None) or spec.bandwidth

    def layer_read_timing(self, n_chunks: int, chunk_bytes: int) -> LayerReadTiming:
        """Time to fetch ``n_chunks`` chunks of ``chunk_bytes`` each.

        Devices work in parallel.  Because successive layer reads chain on
        the IO stream (Fig. 8d: hidden-state transmission proceeds without
        per-layer synchronization) and placement rotates across layers,
        bandwidth is shared fractionally (``n_chunks / n_devices`` chunks'
        worth of bytes per device) while per-IO latency is charged on the
        integer chunk count a device actually serves.  The result is
        floored by a pure link-bandwidth transfer of the same bytes, so a
        fast array degenerates to the PCIe-bound case (§6.2.2: 4 SSDs
        saturate an A100's upstream PCIe).
        """
        if n_chunks < 0 or chunk_bytes < 0:
            raise ConfigError("chunk count and size must be non-negative")
        if n_chunks == 0:
            return LayerReadTiming(0, 0, 0.0, "device")
        nbytes = n_chunks * chunk_bytes
        n_dev = len(self.devices)
        device_time = 0.0
        for device in self.devices:
            n_ios = math.ceil(n_chunks / n_dev)
            share_bytes = n_chunks / n_dev * chunk_bytes
            spec = device.spec
            latency = n_ios * spec.io_latency if hasattr(spec, "io_latency") else 0.0
            bw = self._device_read_bw(device)
            device_time = max(device_time, latency + share_bytes / bw)
        link_time = nbytes / self.link_bandwidth
        if device_time >= link_time:
            return LayerReadTiming(n_chunks, nbytes, device_time, "device")
        return LayerReadTiming(n_chunks, nbytes, link_time, "link")
