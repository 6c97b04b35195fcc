"""HCache reproduction: fast LLM state restoration from hidden states.

Reproduction of *Fast State Restoration in LLM Serving with HCache*
(Gao, Chen, Shu — EuroSys 2025).  The package provides:

- :mod:`repro.core` — the HCache engine, bubble-free restoration
  scheduler, chunk-oriented storage management, two-stage saving, and
  the restoration timing of every method the paper compares (token
  recomputation, KV offload, naive hybrid, HCache-O, HCache, ideal).
- :mod:`repro.models` — model configs plus a real numpy transformer that
  demonstrates lossless restoration.
- :mod:`repro.simulator` — the hardware performance model standing in for
  the paper's GPU/SSD testbed.
- :mod:`repro.storage` — chunked host storage substrate.
- :mod:`repro.engine` — serving engines (timing simulation + numeric).
- :mod:`repro.runtime` — threaded restore executor + shared IO worker
  pool (real wall-clock IO/compute overlap).
- :mod:`repro.traces` — ShareGPT4/L-Eval-shaped workload generators.
- :mod:`repro.cache` — GPU-resident KV reuse (LRU) experiments.

Quickstart (save, evict, restore and compare on a tiny model, then the
modelled restore times at 7B scale)::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro.core import (
    DEFAULT_METHODS,
    METHODS,
    BubbleFreeScheduler,
    HCacheEngine,
    PartitionScheme,
    hcache_timing,
    method_timing,
    profile_platform,
    ttft,
)
from repro.engine import NumericServingEngine, ServingSimulator
from repro.models import KVCache, ModelConfig, Transformer, model_preset
from repro.runtime import IOWorkerPool, RestoreExecutor
from repro.simulator import Platform, platform_preset
from repro.storage import StorageManager

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_METHODS",
    "METHODS",
    "BubbleFreeScheduler",
    "HCacheEngine",
    "IOWorkerPool",
    "KVCache",
    "ModelConfig",
    "NumericServingEngine",
    "PartitionScheme",
    "Platform",
    "RestoreExecutor",
    "ServingSimulator",
    "StorageManager",
    "Transformer",
    "hcache_timing",
    "method_timing",
    "model_preset",
    "platform_preset",
    "profile_platform",
    "ttft",
]

