"""Continuous batching with KV-memory admission control (§2.2).

Requests join and leave the running batch at iteration granularity [Orca].
Admission is gated on GPU memory: a request needs KV room for its whole
context (history + prompt + output budget), which is what limits an
A100-40G to a handful of long contexts (§2.4) and produces the 13B
throughput ceiling in Fig. 9b.  It is gated on the session too: a
session's rounds run one at a time, in the order they were queued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.engine.request import Phase, Request, RequestSpec
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform

#: HBM fraction held back for activations when sizing the KV budget.
ACTIVATION_RESERVE = 0.05


@dataclass(frozen=True)
class MemoryBudget:
    """KV-cache capacity of the serving GPUs.

    Attributes:
        capacity_tokens: Tokens of KV cache that fit after weights and an
            activation reserve are subtracted.
    """

    capacity_tokens: int

    def __post_init__(self) -> None:
        if self.capacity_tokens <= 0:
            raise ConfigError("KV capacity must be positive")

    @classmethod
    def for_platform(cls, config: ModelConfig, platform: Platform) -> "MemoryBudget":
        """Derive the token budget from HBM size, weights, and a reserve.

        Reproduces §2.4's arithmetic: PagedAttention lets an A100-40G hold
        roughly 48K tokens of Llama2-7B KV or 17K of Llama2-13B.
        """
        hbm = platform.gpu.hbm_bytes * platform.n_gpus
        available = hbm * (1 - ACTIVATION_RESERVE) - config.weight_bytes
        if available <= 0:
            raise ConfigError(
                f"{config.name} does not fit on {platform.n_gpus}x {platform.gpu.name}"
            )
        return cls(capacity_tokens=int(available // config.kv_bytes_per_token))


class ContinuousBatcher:
    """Tracks queued and running requests against the memory budget."""

    def __init__(self, budget: MemoryBudget, max_running: int = 256) -> None:
        if max_running <= 0:
            raise ConfigError("max_running must be positive")
        self.budget = budget
        self.max_running = max_running
        self.queue: deque[Request] = deque()
        self.running: list[Request] = []
        self._reserved_tokens = 0

    @property
    def reserved_tokens(self) -> int:
        """KV tokens reserved by admitted (running) requests."""
        return self._reserved_tokens

    @property
    def free_tokens(self) -> int:
        return self.budget.capacity_tokens - self._reserved_tokens

    def enqueue(self, request: Request) -> None:
        if request.phase is not Phase.QUEUED:
            raise ConfigError("only queued requests can be enqueued")
        self.queue.append(request)

    def _fits(self, spec: RequestSpec) -> bool:
        return (
            spec.total_context <= self.free_tokens
            and len(self.running) < self.max_running
        )

    def admit(self, now: float) -> list[Request]:
        """Admit queued requests FCFS while memory allows.

        A session runs one round at a time, in submission order (users
        do not send round *k+1* before reading round *k*): a round whose
        session has a round running stays queued even if memory is free,
        and does not hold up other sessions' rounds behind it.
        """
        admitted: list[Request] = []
        blocked: deque[Request] = deque()
        busy = {r.spec.session_id for r in self.running}
        while self.queue:
            request = self.queue.popleft()
            if request.spec.session_id in busy:
                blocked.append(request)
                continue
            if not self._fits(request.spec):
                # FCFS head-of-line: memory-blocked requests keep order.
                blocked.append(request)
                break
            busy.add(request.spec.session_id)
            self._reserved_tokens += request.spec.total_context
            request.admitted_at = now
            self.running.append(request)
            admitted.append(request)
        while blocked:
            self.queue.appendleft(blocked.pop())
        return admitted

    def release(self, request: Request) -> None:
        """Free a finished request's KV reservation."""
        if request not in self.running:
            raise ConfigError(f"request {request.spec.request_id} is not running")
        self.running.remove(request)
        self._reserved_tokens -= request.spec.total_context

    def decoding(self) -> list[Request]:
        return [r for r in self.running if r.phase is Phase.DECODING]

    def prefilling(self) -> list[Request]:
        return [r for r in self.running if r.phase is Phase.PREFILLING]

    def restoring(self) -> list[Request]:
        return [r for r in self.running if r.phase is Phase.RESTORING]

    @property
    def idle(self) -> bool:
        return not self.queue and not self.running
