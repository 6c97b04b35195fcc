"""LLM serving substrate: one loop, two engines.

- :class:`ServingFrontend` — *the* submit/step/stream request loop:
  continuous batching, SplitFuse, admission control, SLO-aware
  scheduling and restore/decode overlap (typed surface, and the
  :class:`ServingEngine` seam it drives, in :mod:`repro.engine.api`).
- :class:`NumericServingEngine` — the engine of real runs: numpy forward
  passes with HCache save/evict/restore (reproduces losslessness end to
  end); its :meth:`execute_iteration` is the fused prefill+decode
  primitive.
- :class:`CostModelEngine` — the engine of the paper's figures: the same
  seam answered by the timing model on a virtual clock;
  :class:`ServingSimulator` feeds a trace to the front end over it
  (reproduces TTFT/TBT under load).
"""

from repro.engine.api import (
    IterationResult,
    IterationStats,
    ServingEngine,
    ServingRequest,
    ServingResponse,
)
from repro.engine.batching import ContinuousBatcher, MemoryBudget
from repro.engine.frontend import RequestHandle, ServingFrontend, pool_admission_gate
from repro.engine.metrics import MetricsCollector, RequestRecord, ServingReport
from repro.engine.numeric_engine import NumericServingEngine, SessionState
from repro.engine.request import Phase, Request, RequestSpec
from repro.engine.serving import (
    CostModelEngine,
    EngineConfig,
    ServingSimulator,
    concurrent_context_estimate,
    max_context_tokens,
    simulate_methods,
)
from repro.engine.splitfuse import IterationPlan, SplitFuseScheduler

__all__ = [
    "ContinuousBatcher",
    "CostModelEngine",
    "EngineConfig",
    "IterationPlan",
    "IterationResult",
    "IterationStats",
    "MemoryBudget",
    "MetricsCollector",
    "NumericServingEngine",
    "Phase",
    "Request",
    "RequestHandle",
    "RequestRecord",
    "RequestSpec",
    "ServingEngine",
    "ServingFrontend",
    "ServingReport",
    "ServingRequest",
    "ServingResponse",
    "ServingSimulator",
    "SessionState",
    "SplitFuseScheduler",
    "concurrent_context_estimate",
    "max_context_tokens",
    "pool_admission_gate",
    "simulate_methods",
]
