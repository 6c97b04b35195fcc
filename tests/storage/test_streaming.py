"""Tests for chunk-granular streaming reads (the restore pipeline's IO side)."""

from __future__ import annotations

from itertools import cycle

import numpy as np
import pytest

from repro.core.profiler import build_storage_array
from repro.errors import ConfigError
from repro.simulator import platform_preset
from repro.storage import GranuleSpec, StorageManager
from repro.storage import manager as manager_module


@pytest.fixture(autouse=True)
def one_chunk_granules(monkeypatch):
    """Granules of one 64-token chunk unless a test patches otherwise."""
    monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", 1)


def make_manager(platform_name: str = "default") -> StorageManager:
    return StorageManager(build_storage_array(platform_preset(platform_name)))


def fill_context(
    manager: StorageManager,
    n_tokens: int,
    n_layers: int = 3,
    width: int = 16,
    kind: str = "hidden",
    block: int = 23,
    seal: bool = False,
) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(99)
    runs = [(layer, kind) for layer in range(n_layers)]
    manager.register_context("ctx", n_layers=n_layers, hidden_width=width, runs=runs)
    expected: dict[int, np.ndarray] = {}
    for layer in range(n_layers):
        w = width if kind == "hidden" else 2 * width
        data = rng.normal(size=(n_tokens, w)).astype(np.float32)
        for start in range(0, n_tokens, block):
            manager.append("ctx", layer, data[start : start + block], kind=kind)
        expected[layer] = data
    if seal:
        manager.seal_context("ctx")
    return expected


def device_totals(manager):
    """``(busy seconds, reads)`` summed over the array's devices so far."""
    devices = manager.array.devices
    return (
        sum(device.busy_seconds for device in devices),
        sum(device.op_counts[0] for device in devices),
    )


def stream(manager, layers, kind="hidden", depth=2):
    """Walk ``granule_plan`` through ``depth`` staging slots taken
    round-robin, one read per granule.

    Yields ``(spec, view, io_seconds, device_reads)``, the last two the
    granule's deltas of the devices' ``busy_seconds`` / read counts; each
    view stays valid for ``depth - 1`` further granules (its slot is then
    reused).
    """
    meta = manager.meta("ctx")
    slots = cycle(np.empty((depth, manager.granule_tokens, meta.width(kind)), meta.dtype))
    for spec in manager.granule_plan("ctx", layers, kind):
        view = next(slots)[: spec.n_tokens]
        busy_before, reads_before = device_totals(manager)
        manager.read_granule_into("ctx", spec, view)
        busy_after, reads_after = device_totals(manager)
        yield spec, view, busy_after - busy_before, reads_after - reads_before


class TestGranuleStream:
    @pytest.mark.parametrize("granule_chunks", [1, 4])
    @pytest.mark.parametrize("n_tokens", [1, 63, 64, 65, 197, 256])
    def test_reassembled_stream_matches_load_layer(self, n_tokens, granule_chunks, monkeypatch):
        monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", granule_chunks)
        manager = make_manager()
        expected = fill_context(manager, n_tokens)
        out = np.empty((n_tokens, 16), dtype=np.float32)
        for spec, view, _, _ in stream(manager, [1]):
            out[spec.start : spec.stop] = view
        assert np.array_equal(out, expected[1])
        assert np.array_equal(out, manager.load_layer("ctx", 1))

    @pytest.mark.parametrize("granule_chunks", [1, 2, 4])
    def test_granule_coalescing_preserves_content(self, granule_chunks, monkeypatch):
        monkeypatch.setattr(manager_module, "GRANULE_CHUNKS", granule_chunks)
        manager = make_manager()
        assert manager.granule_tokens == granule_chunks * 64
        expected = fill_context(manager, 197)
        out = np.zeros((197, 16), dtype=np.float32)
        total_reads = 0
        for spec, view, _, device_reads in stream(manager, [0]):
            out[spec.start : spec.stop] = view  # consume before recycling
            total_reads += device_reads
        assert np.array_equal(out, expected[0])
        # Coalescing shrinks granule count but never IO granularity: the
        # device-read count stays one per 64-token storage chunk.
        assert total_reads == 197 // 64

    def test_sealed_partial_tail_streams_from_host(self):
        manager = make_manager()
        expected = fill_context(manager, 100, seal=True)
        granules = [(view.copy(), io, reads) for _, view, io, reads in stream(manager, [2])]
        out = np.concatenate([view for view, _, _ in granules])
        assert np.array_equal(out, expected[2])
        # 64 device tokens + 36 host-tail tokens: the tail granule costs
        # no device IO beyond its device-resident prefix.
        assert granules[-1][1] >= 0.0
        assert sum(reads for _, _, reads in granules) == 1

    def test_kv_kind_streams_double_width(self):
        manager = make_manager()
        expected = fill_context(manager, 70, kind="kv")
        out = np.concatenate([view.copy() for _, view, _, _ in stream(manager, [0], "kv")])
        assert np.array_equal(out, expected[0])
        assert out.shape[1] == 32

    def test_plan_orders_layers_back_to_back(self):
        manager = make_manager()
        fill_context(manager, 130)
        seen = [(g.layer, g.start) for g in manager.granule_plan("ctx", [2, 0])]
        assert seen == [(2, 0), (2, 64), (2, 128), (0, 0), (0, 64), (0, 128)]

    def test_dram_array_streams_identically(self):
        ssd = make_manager("default")
        dram = make_manager("a100-dram")
        expected_ssd = fill_context(ssd, 150)
        expected_dram = fill_context(dram, 150)
        for layer in range(3):
            for manager, expected in ((ssd, expected_ssd), (dram, expected_dram)):
                out = np.zeros((150, 16), dtype=np.float32)
                for spec, view, _, _ in stream(manager, [layer]):
                    out[spec.start : spec.stop] = view
                assert np.array_equal(out, expected[layer])

    def test_stream_charges_devices_like_load_layer(self):
        manager = make_manager()
        fill_context(manager, 200)
        busy_before = [d.busy_seconds for d in manager.array.devices]
        manager.load_layer("ctx", 0)
        busy_load = [d.busy_seconds - b for d, b in zip(manager.array.devices, busy_before)]
        busy_mid = [d.busy_seconds for d in manager.array.devices]
        list(stream(manager, [0]))
        busy_stream = [d.busy_seconds - b for d, b in zip(manager.array.devices, busy_mid)]
        assert busy_stream == pytest.approx(busy_load)

    def test_modelled_io_seconds_reported_per_granule(self):
        manager = make_manager()
        fill_context(manager, 256)
        assert all(io_seconds > 0 for _, _, io_seconds, _ in stream(manager, [0]))

    def test_destination_shape_mismatch_rejected(self):
        manager = make_manager()
        fill_context(manager, 64)
        (spec,) = manager.granule_plan("ctx", [0])
        with pytest.raises(ConfigError):
            manager.read_granule_into("ctx", spec, np.empty((64, 7), dtype=np.float32))

    def test_unaligned_granule_rejected(self):
        manager = make_manager()
        fill_context(manager, 128)
        out = np.empty((63, 16), dtype=np.float32)
        with pytest.raises(ConfigError):
            manager.read_granule_into("ctx", GranuleSpec(0, "hidden", 1, 64), out)

    def test_view_valid_for_depth_minus_one_lookahead(self):
        manager = make_manager()
        expected = fill_context(manager, 192)
        granules = stream(manager, [0])
        _, pending, _, _ = next(granules)
        snapshot = pending.copy()
        upcoming = next(granules)  # double buffer: one lookahead is safe
        assert np.array_equal(pending, snapshot)
        next(granules)  # second lookahead recycles pending's slot
        assert upcoming is not None
        assert np.array_equal(pending, expected[0][128:192])  # now granule 2's rows

