"""SplitFuse chunked-prefill budgeting [Sarathi-Serve / DeepSpeed-FastGen].

Each iteration carries at most ``budget`` tokens of forward work: one token
per decoding sequence plus chunks of pending prefills.  Long prompts are
split across iterations and fused with decoding so prefills do not stall
token generation — the mechanism HCache's serving integration inherits from
DeepSpeed-MII (§5, Request scheduling).  The budget defaults to a
cuBLAS-optimized size, matching §4.1.1's mini-batch observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.request import Phase, Request
from repro.errors import ConfigError
from repro.simulator.gemm import optimal_batch_tokens


@dataclass(frozen=True)
class IterationPlan:
    """Work selected for one engine iteration.

    Attributes:
        decode_requests: Sequences generating one token each.
        prefill_chunks: ``(request, tokens)`` pairs of prompt work.
    """

    decode_requests: tuple[Request, ...]
    prefill_chunks: tuple[tuple[Request, int], ...]

    @property
    def has_work(self) -> bool:
        return bool(self.decode_requests or self.prefill_chunks)

    @property
    def decode_session_ids(self) -> tuple[str, ...]:
        """Session ids of this iteration's decode batch, in plan order.

        This is the unit the numeric engine executes as **one** batched
        model call
        (:meth:`repro.engine.numeric_engine.NumericServingEngine.execute_iteration`)
        instead of ``len(decode_requests)`` serial single-token steps —
        the Orca-style iteration batching made real.
        """
        return tuple(r.spec.session_id for r in self.decode_requests)


class SplitFuseScheduler:
    """Selects per-iteration work under a token budget."""

    def __init__(self, budget_tokens: int = 512) -> None:
        if budget_tokens <= 0:
            raise ConfigError("token budget must be positive")
        self.budget_tokens = optimal_batch_tokens(budget_tokens)
        if self.budget_tokens <= 0:
            self.budget_tokens = budget_tokens

    def plan(self, decoding: list[Request], prefilling: list[Request]) -> IterationPlan:
        """Build one iteration: decodes first, then FCFS prefill chunks."""
        for request in decoding:
            if request.phase is not Phase.DECODING:
                raise ConfigError("decode list contains a non-decoding request")
        # Decoding tokens always fit: generation must not starve (§2.2).
        # When the decode batch alone overflows the budget, prefills get
        # nothing this iteration.
        chunks: list[tuple[Request, int]] = []
        remaining = max(0, self.budget_tokens - len(decoding))
        for request in prefilling:
            if request.phase is not Phase.PREFILLING:
                raise ConfigError("prefill list contains a non-prefilling request")
            if remaining <= 0:
                break
            take = min(request.prefill_remaining, remaining)
            if take > 0:
                chunks.append((request, take))
                remaining -= take
        return IterationPlan(
            decode_requests=tuple(decoding), prefill_chunks=tuple(chunks)
        )
