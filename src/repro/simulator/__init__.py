"""Hardware performance model: analytic costs, GEMM timing, platforms.

This package substitutes for the paper's physical testbed (A100/A30/4090/
L20/H800 GPUs, PM9A3 SSDs, PCIe): it reproduces the §3.2 cost equations,
cuBLAS tile quantization (Fig. 13b) and the platform presets.  The
two-stream restoration timing (Fig. 5/8) built on them lives in
:mod:`repro.core.restoration`.
"""

from repro.simulator.costs import (
    RestorationEstimate,
    decode_iteration_time,
    estimate_restoration,
    prefill_time,
    theoretical_compute_speedup,
)
from repro.simulator.gemm import GemmTiming, kv_projection_time, round_up_tokens
from repro.simulator.hardware import (
    GPUS,
    PM9A3,
    DRAMSpec,
    GPUSpec,
    Platform,
    SSDSpec,
    platform_preset,
)

__all__ = [
    "GPUS",
    "PM9A3",
    "DRAMSpec",
    "GPUSpec",
    "GemmTiming",
    "Platform",
    "RestorationEstimate",
    "SSDSpec",
    "decode_iteration_time",
    "estimate_restoration",
    "kv_projection_time",
    "platform_preset",
    "prefill_time",
    "round_up_tokens",
    "theoretical_compute_speedup",
]
