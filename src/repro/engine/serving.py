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
- Restoration is split into an **IO job** (serialized on the one
  PCIe/storage path, overlapping decode compute) and **compute work**
  (consumed inside iterations from the SplitFuse budget they leave over,
  contending with decode — which is why recomputation hurts TBT and TTFT
  while KV offload hurts only TTFT, and why HCache's small projection cost
  leaves TBT within a few percent of ideal, Fig. 9d-f).
- Every method is a restoration priced by
  :func:`~repro.core.restoration.method_timing`: ideal is one that costs
  nothing, recomputation one with no IO and a full prefill's compute
  (§2.4).

:mod:`repro.engine.numeric_engine` is about *what* an iteration computes;
this module is about *when* it happens.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.restoration import RestorationTiming, method_timing
from repro.engine.api import IterationResult, ServingRequest, ServingResponse
from repro.engine.batching import MemoryBudget
from repro.engine.frontend import RequestHandle, ServingFrontend
from repro.engine.metrics import ServingReport, summarize
from repro.engine.request import RequestSpec
from repro.engine.splitfuse import SplitFuseScheduler
from repro.errors import ConfigError, SimulationError, StateError
from repro.models.config import ModelConfig
from repro.simulator.costs import decode_iteration_time, full_layer_flops
from repro.simulator.hardware import Platform

#: Float slack on virtual-time comparisons.
_EPS = 1e-12


#: Safety horizon of a simulated run, in virtual seconds; the run aborts past it.
MAX_SIM_SECONDS = 24 * 3600.0


@dataclass
class _Restoration:
    """One in-flight restoration on the virtual clock."""

    io_start: float
    io_done: float
    compute_left: float


class CostModelEngine:
    """A :class:`~repro.engine.api.ServingEngine` that only keeps time.

    A session is a token count and a resident flag; ``restore_timing``
    prices restoring a history of ``n`` tokens as IO seconds + compute
    seconds; an iteration advances the virtual clock (:meth:`now`) by
    what the cost model says it takes.
    ``budget_tokens`` is the SplitFuse budget the driving loop plans
    under: restoration compute runs in what an iteration leaves of it.
    """

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        restore_timing: Callable[[int], RestorationTiming],
        *,
        budget_tokens: int,
    ) -> None:
        self.config = config
        self.platform = platform
        self.restore_timing = restore_timing
        self.budget_tokens = budget_tokens
        self._prefill_sec_per_token = config.n_layers * full_layer_flops(config, 1) / (
            platform.total_flops * platform.prefill_efficiency
        )
        #: When the one restoration IO path frees up next.
        self._io_free_at = 0.0
        self._now = 0.0
        #: A wait never sleeps past this (the driver's next arrival).
        self.wake_at = math.inf
        self._tokens: dict[str, int] = {}
        self._resident: set[str] = set()
        self._restoring: dict[str, _Restoration] = {}

    def now(self) -> float:
        """The virtual clock, in seconds; it never moves backwards."""
        return self._now

    @property
    def max_context(self) -> int:
        return self.config.max_context

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

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
        """Book each restore's IO job on the one IO path, behind the jobs
        already on it; its compute may begin with the IO (HCache projects
        the first chunks as they land), so a zero-IO restore never waits
        on the IO path."""
        for session_id in reserve_tokens:
            timing = self.restore_timing(self._tokens[session_id])
            start = self._now
            if timing.io_busy > 0:
                start = max(start, self._io_free_at)
                self._io_free_at = start + timing.io_busy
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
        restore_timing: Callable[[int], RestorationTiming],
    ) -> None:
        scheduler = SplitFuseScheduler()
        self.engine = CostModelEngine(
            config,
            platform,
            restore_timing,
            budget_tokens=scheduler.budget_tokens,
        )
        self.frontend = ServingFrontend(
            self.engine,
            MemoryBudget.for_platform(config, platform),
            scheduler=scheduler,
            # The trace is the offered load; back-pressure is not modelled.
            max_queue=sys.maxsize,
            evict_on_finish=True,
            clock=self.engine.now,
        )
        #: The last :meth:`run`'s finished responses, in finishing order.
        self.responses: list[ServingResponse] = []

    def _submit(self, spec: RequestSpec) -> RequestHandle:
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
        return handle

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
        handles: dict[str, RequestHandle] = {}
        self.responses = []
        idx = 0
        while idx < len(pending) or not frontend.idle:
            now = engine.now()
            if now > MAX_SIM_SECONDS:
                raise SimulationError(f"simulation exceeded {MAX_SIM_SECONDS}s; likely overload")
            while idx < len(pending) and pending[idx].arrival_time <= now + _EPS:
                handle = self._submit(pending[idx])
                handles[handle.request_id] = handle
                idx += 1
            engine.wake_at = pending[idx].arrival_time if idx < len(pending) else math.inf
            stats = frontend.step()
            self.responses.extend(handles.pop(rid).result() for rid in stats.finished)
            if stats.has_work or engine.now() > now:
                continue
            if idx == len(pending) and frontend.queue_depth:
                raise SimulationError(
                    "queued requests can never be admitted (memory too small)"
                )
            engine.wait_for_restores()  # nothing runnable: skip to the next arrival
        return summarize(self.responses)


def simulate_methods(
    config: ModelConfig,
    platform: Platform,
    methods: Sequence[str],
    specs: list[RequestSpec],
) -> dict[str, ServingReport]:
    """Run the same trace through several restoration methods, by name
    (:data:`~repro.core.restoration.METHODS`)."""
    reports: dict[str, ServingReport] = {}
    for name in methods:
        timing = partial(method_timing, name, config, platform)
        simulator = ServingSimulator(config, platform, timing)
        reports[name] = simulator.run(list(specs))
    return reports


def max_context_tokens(config: ModelConfig, platform: Platform) -> int:
    """Convenience: the §2.4 KV-capacity arithmetic, in tokens."""
    return MemoryBudget.for_platform(config, platform).capacity_tokens


def concurrent_context_estimate(
    config: ModelConfig, platform: Platform, context_len: int
) -> int:
    """How many contexts of ``context_len`` fit on the GPU at once (§2.4)."""
    if context_len <= 0:
        raise ConfigError("context_len must be positive")
    return int(math.floor(max_context_tokens(config, platform) / context_len))
