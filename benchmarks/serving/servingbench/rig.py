"""The fixed rig: model, emulated storage, engines and cloned histories.

Everything here is a constant, not a knob: later issues compare against
numbers taken on exactly this rig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.engine.batching import MemoryBudget
from repro.engine.frontend import ServingFrontend
from repro.engine.numeric_engine import NumericServingEngine
from repro.engine.splitfuse import SplitFuseScheduler
from repro.models.config import ModelConfig
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime.executor import RestoreExecutor
from repro.simulator.hardware import GB, SSDSpec
from repro.storage.array import StorageArray
from repro.storage.device import LatencyEmulator
from repro.storage.manager import StorageManager

#: Big enough that BLAS, not the interpreter, sets the time of a model call.
BENCH_MODEL = ModelConfig(
    name="bench-mid",
    n_layers=12,
    hidden_size=512,
    n_heads=8,
    n_kv_heads=8,
    ffn_hidden_size=1408,
    n_ffn_mats=3,
    vocab_size=4096,
)

#: ``--smoke`` only: checks the plumbing in seconds, measures nothing.
SMOKE_MODEL = ModelConfig(
    name="bench-smoke",
    n_layers=2,
    hidden_size=64,
    n_heads=4,
    n_kv_heads=4,
    ffn_hidden_size=176,
    n_ffn_mats=3,
    vocab_size=256,
)

#: One emulated device whose read time for a 512-token history (12.6 MB
#: of fp32 hidden states, ~126 ms) is close to the projection time of the
#: same history (~90 ms): the paper's IO ~ compute regime.
BENCH_SSD = SSDSpec(
    name="bench-balanced-mid",
    read_bandwidth=0.1 * GB,
    write_bandwidth=4.0 * GB,
    io_latency=20e-6,
)
LINK_BANDWIDTH = 32 * GB

WEIGHT_SEED = 0
SPLITFUSE_BUDGET = 256
IO_WORKERS = 1
#: Never the constraint: admission is not what these workloads measure.
KV_BUDGET_TOKENS = 1 << 24


@dataclass
class Rig:
    """Every object of one serving stack, so layers can be timed from outside."""

    model: Transformer
    array: StorageArray
    emulator: LatencyEmulator
    storage: StorageManager
    hcache: HCacheEngine
    executor: RestoreExecutor
    engine: NumericServingEngine
    frontend: ServingFrontend

    def close(self) -> None:
        self.executor.close()


def build_rig(model: Transformer, *, evict_on_finish: bool) -> Rig:
    array = StorageArray([BENCH_SSD], link_bandwidth=LINK_BANDWIDTH)
    emulator = array.emulate_latency()
    storage = StorageManager(array)
    hcache = HCacheEngine(model, storage)
    executor = RestoreExecutor(IO_WORKERS)
    engine = NumericServingEngine(model, hcache, executor=executor)
    frontend = ServingFrontend(
        engine,
        MemoryBudget(capacity_tokens=KV_BUDGET_TOKENS),
        scheduler=SplitFuseScheduler(SPLITFUSE_BUDGET),
        overlap_restores=True,
        evict_on_finish=evict_on_finish,
    )
    return Rig(model, array, emulator, storage, hcache, executor, engine, frontend)


def build_kv_offload_engine(model: Transformer) -> HCacheEngine:
    """The KV-offload baseline: same device, every layer stored as K/V."""
    array = StorageArray([BENCH_SSD], link_bandwidth=LINK_BANDWIDTH)
    array.emulate_latency()
    return HCacheEngine(
        model,
        StorageManager(array),
        scheme=PartitionScheme.pure_kv(model.config.n_layers),
    )


@dataclass
class Template:
    """One real prefill whose states every cloned history reuses."""

    tokens: np.ndarray
    capture: HiddenCapture
    cache: KVCache

    @property
    def n_tokens(self) -> int:
        return int(self.tokens.size)

    def hidden_states(self) -> list[np.ndarray]:
        return self.capture.block_views(0, self.n_tokens)


def make_template(model: Transformer, tokens: np.ndarray) -> Template:
    config = model.config
    cache = KVCache(config)
    capture = HiddenCapture(config.n_layers, config.hidden_size)
    capture.reserve(tokens.size)
    model.forward(tokens, cache, capture=capture)
    return Template(tokens=tokens, capture=capture, cache=cache)


def clone_evicted_session(rig: Rig, template: Template, session_id: str) -> None:
    """Open ``session_id`` as if it had served the template and been evicted.

    A real prefill of the history costs seconds; replaying the template's
    captured hidden states through the ordinary save path costs
    milliseconds and leaves byte-identical storage contents, so a restore
    of the clone is bit-exact against the template's KV cache.
    """
    state = rig.engine.open_session(session_id)
    rig.hcache.save_states(session_id, template.hidden_states(), template.tokens)
    rig.hcache.seal(session_id)
    state.tokens.extend(int(t) for t in template.tokens)
