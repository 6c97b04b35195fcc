"""Request and session abstractions for the serving engine.

A request is one round of a stateful interaction: it arrives with some
amount of evicted history (zero for the first round), a fresh prompt, and
a target output length.  The engine moves it through the restoration,
prefill, and decode phases (§5, Request scheduling), recording the
timestamps that define TTFT and TBT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.engine.api import ServingResponse
from repro.errors import ConfigError, StateError


class Phase(str, Enum):
    """Lifecycle of a request inside the engine."""

    QUEUED = "queued"
    RESTORING = "restoring"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"


@dataclass(frozen=True)
class RequestSpec:
    """Immutable description of one request (one conversation round).

    Attributes:
        request_id: Unique id.
        session_id: Conversation / context identity; rounds of one session
            share it and execute one at a time, in submission order.
        arrival_time: When the user submits the round (seconds).
        history_tokens: Evicted context that must be restored first.
        input_tokens: New prompt length.
        output_tokens: Tokens the model will generate.
    """

    request_id: str
    session_id: str
    arrival_time: float
    history_tokens: int
    input_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ConfigError("arrival time must be non-negative")
        if self.history_tokens < 0 or self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ConfigError(
                "history must be >= 0 and input/output lengths must be positive"
            )

    @property
    def total_context(self) -> int:
        """Context size once the request finishes (history + in + out)."""
        return self.history_tokens + self.input_tokens + self.output_tokens


@dataclass
class Request:
    """Mutable runtime state of a request inside the serving loop.

    Attributes:
        prompt: The round's prompt tokens; chunks of it are what the loop
            hands the engine.
        deadline: Arrival plus the TTFT SLO — the prefill ordering key
            (``inf`` for best-effort requests).
        emitted: Tokens generated so far, in order.
        last_token_at: When the final token was emitted.  TBT ends here;
            ``finished_at`` comes one iteration later, once that token has
            been fed through the model, its state saved and the KV
            reservation released.
        response: The finished request's one record, written by
            :meth:`mark_finished` (what its handle resolves to and the
            metrics keep); ``None`` until then.
    """

    spec: RequestSpec
    prompt: np.ndarray | None = None
    deadline: float = float("inf")
    phase: Phase = Phase.QUEUED
    prefill_remaining: int = field(default=0)
    emitted: list[int] = field(default_factory=list)
    admitted_at: float = float("nan")
    restore_started_at: float = float("nan")
    restore_finished_at: float = float("nan")
    first_token_at: float = float("nan")
    last_token_at: float = float("nan")
    finished_at: float = float("nan")
    response: ServingResponse | None = None

    def __post_init__(self) -> None:
        self.prefill_remaining = self.spec.input_tokens

    @property
    def restore_seconds(self) -> float:
        """Restore start to settle; 0.0 when nothing had to be restored."""
        seconds = self.restore_finished_at - self.restore_started_at
        return 0.0 if math.isnan(seconds) else seconds

    def emit(self, token: int, now: float) -> None:
        """Record one generated token; the first one ends the prefill."""
        if self.phase is Phase.PREFILLING:
            self.first_token_at = now
            self.phase = Phase.DECODING
        elif self.phase is not Phase.DECODING:
            raise StateError("tokens come from the prefill or decode phase")
        self.emitted.append(token)
        if len(self.emitted) == self.spec.output_tokens:
            self.last_token_at = now

    def mark_finished(self, now: float) -> ServingResponse:
        """Finish the request and write up its one record, :attr:`response`."""
        if self.phase is not Phase.DECODING:
            raise StateError("only decoding requests can finish")
        self.finished_at = now
        self.phase = Phase.FINISHED
        self.response = ServingResponse(
            request_id=self.spec.request_id,
            session_id=self.spec.session_id,
            tokens=tuple(self.emitted),
            arrival_time=self.spec.arrival_time,
            admitted_at=self.admitted_at,
            first_token_at=self.first_token_at,
            last_token_at=self.last_token_at,
            finished_at=now,
            restore_seconds=self.restore_seconds,
        )
        return self.response
