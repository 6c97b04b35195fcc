"""Tests for restoration pipeline construction (Fig. 5 / Fig. 8)."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.simulator.pipeline import (
    LayerMethod,
    LayerPlan,
    TokenwiseLayerPlan,
    build_layerwise_schedule,
    build_tokenwise_schedule,
    restoration_makespan,
)


def hidden_plan(layer: int, io: float = 1.0, compute: float = 0.5) -> LayerPlan:
    return LayerPlan(layer, LayerMethod.HIDDEN, io, compute)


class TestLayerPlanValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(SchedulingError):
            LayerPlan(0, LayerMethod.HIDDEN, -1.0, 0.0)

    def test_recompute_layers_move_no_io(self):
        with pytest.raises(SchedulingError):
            LayerPlan(0, LayerMethod.RECOMPUTE, 1.0, 1.0)

    def test_kv_layers_need_no_compute(self):
        with pytest.raises(SchedulingError):
            LayerPlan(0, LayerMethod.KV, 1.0, 1.0)

    def test_empty_plan_rejected(self):
        with pytest.raises(SchedulingError):
            build_layerwise_schedule([])

    def test_gap_in_layers_rejected(self):
        with pytest.raises(SchedulingError):
            build_layerwise_schedule([hidden_plan(0), hidden_plan(2)])

    def test_recompute_must_be_prefix(self):
        plans = [
            hidden_plan(0),
            LayerPlan(1, LayerMethod.RECOMPUTE, 0.0, 1.0),
        ]
        with pytest.raises(SchedulingError):
            build_layerwise_schedule(plans)


class TestHCacheOnlyPipeline:
    def test_io_bound_makespan(self):
        """When IO dominates, makespan = total IO + last projection."""
        plans = [hidden_plan(i, io=2.0, compute=1.0) for i in range(4)]
        result = build_layerwise_schedule(plans)
        assert result.makespan == pytest.approx(4 * 2.0 + 1.0)

    def test_compute_bound_makespan(self):
        """When compute dominates, makespan = first IO + total compute."""
        plans = [hidden_plan(i, io=1.0, compute=3.0) for i in range(4)]
        result = build_layerwise_schedule(plans)
        assert result.makespan == pytest.approx(1.0 + 4 * 3.0)

    def test_makespan_lower_bound(self):
        plans = [hidden_plan(i, io=1.5, compute=1.5) for i in range(8)]
        result = build_layerwise_schedule(plans)
        total = 8 * 1.5
        assert result.makespan >= total
        assert result.busy_time("io") == pytest.approx(total)
        assert result.busy_time("compute") == pytest.approx(total)


class TestKVComplement:
    def test_kv_layers_fill_io_bubble(self):
        """Fig. 8d: compute-bound hidden layers + KV transfers on the IO
        stream should beat pure hidden restoration."""
        pure = [hidden_plan(i, io=1.0, compute=2.0) for i in range(6)]
        mixed = [hidden_plan(i, io=1.0, compute=2.0) for i in range(4)] + [
            LayerPlan(4, LayerMethod.KV, 2.0, 0.0),
            LayerPlan(5, LayerMethod.KV, 2.0, 0.0),
        ]
        assert restoration_makespan(mixed) < restoration_makespan(pure)

    def test_kv_io_after_hidden_io(self):
        plans = [hidden_plan(0, io=1.0, compute=1.0), LayerPlan(1, LayerMethod.KV, 5.0, 0.0)]
        result = build_layerwise_schedule(plans)
        kv_task = next(t for t in result.tasks if t.name == "kv:L1")
        io_task = next(t for t in result.tasks if t.name == "io:L0")
        assert kv_task.start >= io_task.end


class TestRecomputeComplement:
    def test_prefetch_overlaps_recompute(self):
        """§4.1.2: hidden states prefetch during token recomputation."""
        plans = [LayerPlan(0, LayerMethod.RECOMPUTE, 0.0, 4.0)] + [
            hidden_plan(i, io=1.0, compute=0.5) for i in range(1, 4)
        ]
        result = build_layerwise_schedule(plans)
        io0 = next(t for t in result.tasks if t.name == "io:L1")
        assert io0.start == 0.0  # prefetch starts immediately
        proj = next(t for t in result.tasks if t.name == "proj:L1")
        assert proj.start >= 4.0  # projections wait for recompute

    def test_recompute_only_plan(self):
        plans = [LayerPlan(i, LayerMethod.RECOMPUTE, 0.0, 2.0) for i in range(3)]
        assert restoration_makespan(plans) == pytest.approx(6.0)


class TestTokenwisePipeline:
    def test_per_layer_sync(self):
        plans = [TokenwiseLayerPlan(i, io_time=1.0, compute_time=1.0) for i in range(4)]
        result = build_tokenwise_schedule(plans)
        # Each projection waits for its own layer's combined transfer.
        assert result.makespan == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            build_tokenwise_schedule([])

    def test_layer_order_normalized(self):
        plans = [
            TokenwiseLayerPlan(1, io_time=1.0, compute_time=1.0),
            TokenwiseLayerPlan(0, io_time=1.0, compute_time=1.0),
        ]
        result = build_tokenwise_schedule(plans)
        names = [t.name for t in result.tasks if t.stream == "io"]
        assert names == ["io:L0", "io:L1"]
