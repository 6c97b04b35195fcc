"""Hardware performance model: analytic costs, GEMM timing, streams.

This package substitutes for the paper's physical testbed (A100/A30/4090/
L20/H800 GPUs, PM9A3 SSDs, PCIe): it reproduces the §3.2 cost equations,
cuBLAS tile quantization (Fig. 13b) and CUDA-stream pipelining (Fig. 5/8).
"""

from repro.simulator.costs import (
    LayerCosts,
    RestorationEstimate,
    decode_iteration_time,
    estimate_restoration,
    layer_costs,
    prefill_time,
    theoretical_compute_speedup,
)
from repro.simulator.gemm import GemmTiming, gemm_time, kv_projection_time, round_up_tokens
from repro.simulator.hardware import (
    GPUS,
    PM9A3,
    DRAMSpec,
    GPUSpec,
    InterconnectSpec,
    Platform,
    SSDSpec,
    platform_preset,
)
from repro.simulator.pipeline import (
    COMPUTE_STREAM,
    IO_STREAM,
    LayerMethod,
    LayerPlan,
    ShardedStageTimeline,
    TokenwiseLayerPlan,
    build_layerwise_schedule,
    build_tokenwise_schedule,
    restoration_makespan,
    sharded_restoration_makespan,
)
from repro.simulator.streams import ScheduleResult, StreamSchedule, Task

__all__ = [
    "COMPUTE_STREAM",
    "GPUS",
    "IO_STREAM",
    "PM9A3",
    "DRAMSpec",
    "GPUSpec",
    "GemmTiming",
    "InterconnectSpec",
    "LayerCosts",
    "LayerMethod",
    "LayerPlan",
    "Platform",
    "RestorationEstimate",
    "SSDSpec",
    "ScheduleResult",
    "ShardedStageTimeline",
    "StreamSchedule",
    "Task",
    "TokenwiseLayerPlan",
    "build_layerwise_schedule",
    "build_tokenwise_schedule",
    "decode_iteration_time",
    "estimate_restoration",
    "gemm_time",
    "kv_projection_time",
    "layer_costs",
    "platform_preset",
    "prefill_time",
    "restoration_makespan",
    "round_up_tokens",
    "sharded_restoration_makespan",
    "theoretical_compute_speedup",
]
