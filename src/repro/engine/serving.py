"""The paper-figure serving simulation: the shipped loop on a cost model.

Reproduces the serving stack HCache was implemented in (DeepSpeed-MII with
continuous batching and SplitFuse, §5).  There is no second loop here:
:class:`ServingSimulator` drives the same :class:`ServingFrontend` that
serves real requests, over :class:`CostModelEngine` — an engine that
answers the front end's seam (:class:`~repro.engine.api.ServingEngine`)
with the paper's timing equations on a virtual clock instead of forward
passes:

- Every iteration carries one token per decoding sequence plus SplitFuse
  chunks of pending prefills; its duration comes from the decode bandwidth
  model plus the chunk compute.
- Restoration is split into an **IO job** (serialized on the PCIe/storage
  path — or spread over ``restore_io_parallelism`` channels modelling the
  shared IO worker pool — overlapping decode compute) and **compute work**
  (consumed inside iterations from the SplitFuse budget they leave over,
  contending with decode — which is why recomputation hurts TBT and TTFT
  while KV offload hurts only TTFT, and why HCache's small projection cost
  leaves TBT within a few percent of ideal, Fig. 9d-f).
- Every method is a restoration described by its
  :meth:`~repro.baselines.base.RestorationMethod.restoration_timing`:
  ideal is one that costs nothing, recomputation one with no IO and a
  full prefill's compute (§2.4).

:mod:`repro.engine.numeric_engine` is about *what* an iteration computes;
this module is about *when* it happens.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import RestorationMethod
from repro.engine.api import IterationResult, ServingRequest
from repro.engine.batching import MemoryBudget
from repro.engine.frontend import ServingFrontend
from repro.engine.metrics import ServingReport
from repro.engine.request import RequestSpec
from repro.engine.splitfuse import SplitFuseScheduler
from repro.errors import ConfigError, SimulationError, StateError
from repro.models.config import ModelConfig
from repro.simulator.costs import decode_iteration_time, full_layer_flops
from repro.simulator.hardware import Platform

#: Float slack on virtual-time comparisons.
_EPS = 1e-12


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the serving simulation.

    Attributes:
        budget_tokens: SplitFuse per-iteration token budget.
        activation_reserve: HBM fraction reserved for activations.
        max_running: Concurrency cap of the running batch.
        max_sim_seconds: Safety horizon; the run aborts past it.
        restore_io_parallelism: Concurrent restoration IO channels — the
            timing-model counterpart of the numeric engines' shared
            :class:`repro.runtime.IOWorkerPool`.  With 1 (the default,
            and the paper's single PCIe/storage path) restoration IO jobs
            serialize behind each other; with ``k`` an admitted burst of
            ``k`` restores starts transferring at once and only the
            ``k+1``-th waits.
    """

    budget_tokens: int = 512
    activation_reserve: float = 0.05
    max_running: int = 256
    max_sim_seconds: float = 24 * 3600.0
    restore_io_parallelism: int = 1


@dataclass
class _Restoration:
    """One in-flight restoration on the virtual clock."""

    io_start: float
    io_done: float
    compute_left: float


class CostModelEngine:
    """A :class:`~repro.engine.api.ServingEngine` that only keeps time.

    A session is a token count and a resident flag; ``method`` prices a
    restoration as IO seconds + compute seconds; an iteration advances
    the virtual clock (:meth:`now`) by what the cost model says it takes.
    ``budget_tokens`` is the SplitFuse budget the driving loop plans
    under: restoration compute runs in what an iteration leaves of it.
    """

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        method: RestorationMethod,
        *,
        budget_tokens: int,
        io_channels: int = 1,
    ) -> None:
        if io_channels < 1:
            raise ConfigError("restore_io_parallelism must be at least 1")
        self.config = config
        self.platform = platform
        self.method = method
        self.budget_tokens = budget_tokens
        self._prefill_sec_per_token = config.n_layers * full_layer_flops(config, 1) / (
            platform.total_flops * platform.prefill_efficiency
        )
        #: One entry per restoration IO channel: when it frees up next.
        self._io_free_at = [0.0] * io_channels
        self._now = 0.0
        #: A wait never sleeps past this (the driver's next arrival).
        self.wake_at = math.inf
        self._tokens: dict[str, int] = {}
        self._resident: set[str] = set()
        self._restoring: dict[str, _Restoration] = {}

    def now(self) -> float:
        """The virtual clock, in seconds; it never moves backwards."""
        return self._now

    def has_session(self, session_id: str) -> bool:
        return session_id in self._tokens

    def open_session(self, session_id: str, history_tokens: int = 0) -> None:
        """Open a session, evicted, with ``history_tokens`` already in
        host storage (a trace's first round may arrive with history)."""
        if session_id in self._tokens:
            raise StateError(f"session {session_id!r} already open")
        self._tokens[session_id] = history_tokens

    def history_length(self, session_id: str) -> int:
        return self._tokens[session_id]

    def evict(self, session_id: str) -> None:
        self._resident.remove(session_id)

    def begin_round(self, session_id: str, total_context: int) -> bool:
        if self._tokens[session_id] and session_id not in self._resident:
            return True
        self._resident.add(session_id)
        return False

    def start_restores(
        self, reserve_tokens: Mapping[str, int], *, background: bool = True
    ) -> None:
        """Book each restore's IO job on the earliest-free channel; its
        compute may begin with the IO (HCache projects the first chunks
        as they land), so a zero-IO restore never waits on the IO path."""
        for session_id in reserve_tokens:
            timing = self.method.restoration_timing(self._tokens[session_id])
            start = self._now
            if timing.io_busy > 0:
                channel = min(
                    range(len(self._io_free_at)), key=self._io_free_at.__getitem__
                )
                start = max(start, self._io_free_at[channel])
                self._io_free_at[channel] = start + timing.io_busy
            self._restoring[session_id] = _Restoration(
                start, start + timing.io_busy, timing.compute_busy
            )

    def finished_restores(self) -> list[str]:
        done = [
            sid
            for sid, job in self._restoring.items()
            if self._now + _EPS >= job.io_done and job.compute_left <= _EPS
        ]
        for session_id in done:
            del self._restoring[session_id]
            self._resident.add(session_id)
        return done

    def _restore_compute(self, budget_tokens: int) -> float:
        """Spend up to ``budget_tokens`` of iteration budget on pending
        restoration compute, FCFS; returns the seconds it took."""
        capacity = budget_tokens * self._prefill_sec_per_token
        spent = 0.0
        for job in self._restoring.values():
            if capacity <= 0:
                break
            if job.compute_left > _EPS and self._now + _EPS >= job.io_start:
                piece = min(job.compute_left, capacity)
                job.compute_left -= piece
                capacity -= piece
                spent += piece
        return spent

    def wait_for_restores(self) -> None:
        """A restore-only iteration if restoration compute is pending,
        else a jump to the next IO completion or the driver's next arrival."""
        spent = self._restore_compute(self.budget_tokens)
        if spent > 0:
            self._now += self.platform.iteration_overhead + spent
            return
        pending = [j.io_done for j in self._restoring.values() if j.io_done > self._now]
        self._now = max(self._now, min([self.wake_at, *pending]))

    def execute_iteration(
        self,
        prefill_chunks: Sequence[tuple[str, np.ndarray]] = (),
        decode_tokens: Mapping[str, int] | None = None,
    ) -> IterationResult:
        decode = decode_tokens or {}
        duration = self.platform.iteration_overhead
        if decode:
            # The fed token attends over the session's log plus itself.
            context = sum(self._tokens[sid] + 1 for sid in decode)
            duration += decode_iteration_time(
                self.config, self.platform, len(decode), context
            )
        prefill_tokens = sum(len(tokens) for _, tokens in prefill_chunks)
        duration += prefill_tokens * self._prefill_sec_per_token
        # Restoration compute shares the leftover SplitFuse budget so it
        # cannot starve decoding (the projection GEMMs are a few hundred
        # microseconds; recompute-prefix work is bigger but still bounded).
        leftover = self.budget_tokens - len(decode) - prefill_tokens
        self._now += duration + self._restore_compute(max(0, leftover))
        for session_id, tokens in prefill_chunks:
            self._tokens[session_id] += len(tokens)
        for session_id in decode:
            self._tokens[session_id] += 1
        sessions = [sid for sid, _ in prefill_chunks] + list(decode)
        return IterationResult(next_tokens=dict.fromkeys(sessions, 0))


class ServingSimulator:
    """Serves a trace through the front end over a :class:`CostModelEngine`."""

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        method: RestorationMethod,
        engine_config: EngineConfig | None = None,
    ) -> None:
        self.engine_config = cfg = engine_config or EngineConfig()
        scheduler = SplitFuseScheduler(cfg.budget_tokens)
        self.engine = CostModelEngine(
            config,
            platform,
            method,
            budget_tokens=scheduler.budget_tokens,
            io_channels=cfg.restore_io_parallelism,
        )
        self.frontend = ServingFrontend(
            self.engine,
            MemoryBudget.for_platform(config, platform, cfg.activation_reserve),
            scheduler=scheduler,
            max_running=cfg.max_running,
            # The trace is the offered load; back-pressure is not modelled.
            max_queue=sys.maxsize,
            evict_on_finish=True,
            clock=self.engine.now,
        )
        self.metrics = self.frontend.metrics

    def _submit(self, spec: RequestSpec) -> None:
        """A session's first spec sets the history it arrives with; later
        rounds must agree with what the earlier ones leave behind."""
        if not self.engine.has_session(spec.session_id):
            self.engine.open_session(spec.session_id, spec.history_tokens)
        handle = self.frontend.submit(
            ServingRequest(
                session_id=spec.session_id,
                prompt_tokens=np.zeros(spec.input_tokens, dtype=np.intp),
                max_new_tokens=spec.output_tokens,
                request_id=spec.request_id,
                arrival_time=spec.arrival_time,
            )
        )
        served = handle.request.spec.history_tokens
        if served != spec.history_tokens:
            raise ConfigError(
                f"request {spec.request_id} claims {spec.history_tokens} history "
                f"tokens but its session's earlier rounds leave {served}"
            )

    def run(self, specs: list[RequestSpec]) -> ServingReport:
        """Simulate serving ``specs`` to completion and summarize."""
        if not specs:
            raise ConfigError("no requests to serve")
        pending = sorted(specs, key=lambda s: s.arrival_time)
        capacity = self.frontend.batcher.budget.capacity_tokens
        for spec in pending:
            if spec.total_context > capacity:
                raise ConfigError(
                    f"request {spec.request_id} needs {spec.total_context} KV tokens; "
                    f"capacity is {capacity} (shrink the trace or the model)"
                )
        engine, frontend = self.engine, self.frontend
        horizon = self.engine_config.max_sim_seconds
        idx = 0
        while idx < len(pending) or not frontend.idle:
            now = engine.now()
            if now > horizon:
                raise SimulationError(f"simulation exceeded {horizon}s; likely overload")
            while idx < len(pending) and pending[idx].arrival_time <= now + _EPS:
                self._submit(pending[idx])
                idx += 1
            engine.wake_at = pending[idx].arrival_time if idx < len(pending) else math.inf
            stats = frontend.step()
            if stats.has_work or engine.now() > now:
                continue
            if idx == len(pending) and frontend.queue_depth:
                raise SimulationError(
                    "queued requests can never be admitted "
                    "(memory too small or dependency missing)"
                )
            engine.wait_for_restores()  # nothing runnable: skip to the next arrival
        return self.metrics.summarize()


def simulate_methods(
    config: ModelConfig,
    platform: Platform,
    methods: dict[str, RestorationMethod],
    specs: list[RequestSpec],
    engine_config: EngineConfig | None = None,
) -> dict[str, ServingReport]:
    """Run the same trace through several restoration methods."""
    reports: dict[str, ServingReport] = {}
    for name, method in methods.items():
        simulator = ServingSimulator(config, platform, method, engine_config)
        reports[name] = simulator.run(list(specs))
    return reports


def max_context_tokens(
    config: ModelConfig, platform: Platform, activation_reserve: float = 0.05
) -> int:
    """Convenience: the §2.4 KV-capacity arithmetic, in tokens."""
    return MemoryBudget.for_platform(config, platform, activation_reserve).capacity_tokens


def concurrent_context_estimate(
    config: ModelConfig, platform: Platform, context_len: int
) -> int:
    """How many contexts of ``context_len`` fit on the GPU at once (§2.4)."""
    if context_len <= 0:
        raise ConfigError("context_len must be positive")
    return int(math.floor(max_context_tokens(config, platform) / context_len))
