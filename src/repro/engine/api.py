"""Typed surface of the serving front end, on both of its sides.

Towards callers, three small types:

- :class:`ServingRequest` — what a caller submits (one conversation
  round: a prompt continuing a session plus an output budget);
- :class:`ServingResponse` — what a finished request resolves to (the
  generated tokens and the timestamps that define TTFT/TPOT);
- :class:`IterationStats` — what one :meth:`ServingFrontend.step`
  reports (admissions, restore traffic, the fused batch composition,
  and the number of model calls — pinned to at most one per iteration).

Towards whatever executes the iterations, one seam:
:class:`ServingEngine` (and the :class:`IterationResult` its
``execute_iteration`` returns).  The numeric engine implements it with
real forward passes and restores, the cost-model engine with the
paper's timing equations on a virtual clock.

This module's ``__all__`` is pinned by the ``frontend-api`` lint rule;
additions must update the rule's expected surface in the same change.
"""

from __future__ import annotations

from dataclasses import dataclass as _dataclass
from dataclasses import field as _field
from typing import Mapping as _Mapping
from typing import Protocol as _Protocol
from typing import Sequence as _Sequence

import numpy as np

from repro.errors import ConfigError as _ConfigError

__all__ = [
    "IterationResult",
    "IterationStats",
    "ServingEngine",
    "ServingRequest",
    "ServingResponse",
]


@_dataclass(frozen=True)
class ServingRequest:
    """One conversation round submitted to the serving front end.

    Attributes:
        session_id: Conversation / storage-context identity.  Rounds of
            one session execute in submission order; history the engine
            evicted between rounds is restored transparently.
        prompt_tokens: The round's new prompt, a non-empty 1-D token
            array (normalized to ``np.ndarray`` on construction).
        max_new_tokens: Greedy tokens to generate (> 0).
        request_id: Stable unique id; ``None`` lets the front end assign
            ``"<session_id>/r<n>"`` at submit time.
        arrival_time: Submission timestamp on the front end's clock;
            ``None`` means "when :meth:`ServingFrontend.submit` runs".
            Trace replays pass explicit arrivals so queueing delay is
            measured against the offered load, not the submit loop.
        slo_ttft_s: Optional time-to-first-token target used for
            SLO-aware scheduling (earliest-deadline-first prefill
            order); ``None`` means best effort.
    """

    session_id: str
    prompt_tokens: np.ndarray
    max_new_tokens: int
    request_id: str | None = None
    arrival_time: float | None = None
    slo_ttft_s: float | None = None

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt_tokens)
        if prompt.ndim != 1 or prompt.size == 0:
            raise _ConfigError("prompt must be a non-empty 1-D token array")
        if not np.issubdtype(prompt.dtype, np.integer):
            raise _ConfigError(f"prompt token ids must be integers, got {prompt.dtype}")
        if prompt.min() < 0:
            raise _ConfigError("prompt token ids must be non-negative")
        object.__setattr__(self, "prompt_tokens", prompt)
        if self.max_new_tokens <= 0:
            raise _ConfigError("max_new_tokens must be positive")
        if self.arrival_time is not None and self.arrival_time < 0:
            raise _ConfigError("arrival time must be non-negative")
        if self.slo_ttft_s is not None and self.slo_ttft_s <= 0:
            raise _ConfigError("slo_ttft_s must be positive when given")


@_dataclass(frozen=True)
class ServingResponse:
    """A finished request: its token stream plus the serving timeline."""

    request_id: str
    session_id: str
    tokens: tuple[int, ...]
    arrival_time: float
    admitted_at: float
    first_token_at: float
    #: When the final token was emitted; ``finished_at`` is one iteration
    #: later (that token fed, its state saved, the KV reservation freed).
    last_token_at: float
    finished_at: float
    restore_seconds: float = 0.0

    @property
    def ttft(self) -> float:
        """Time to first token (arrival to end of prefill)."""
        return self.first_token_at - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first one (a.k.a. TBT)."""
        n_gaps = len(self.tokens) - 1
        if n_gaps <= 0:
            return 0.0
        return (self.last_token_at - self.first_token_at) / n_gaps


@_dataclass(frozen=True)
class IterationStats:
    """What one :meth:`ServingFrontend.step` did — the iteration event.

    All id tuples hold *request* ids except ``decode_sessions`` (the
    fused batch is keyed by session, matching
    :meth:`IterationPlan.decode_session_ids`).
    """

    index: int
    time: float
    admitted: tuple[str, ...] = ()
    restores_started: tuple[str, ...] = ()
    restores_completed: tuple[str, ...] = ()
    prefill_chunks: tuple[tuple[str, int], ...] = ()
    decode_sessions: tuple[str, ...] = ()
    finished: tuple[str, ...] = ()
    #: Batched transformer calls this iteration issued — 0 (nothing
    #: runnable) or 1 (the fused prefill+decode pass); never more.
    model_calls: int = 0

    @property
    def prefill_tokens(self) -> int:
        return sum(tokens for _, tokens in self.prefill_chunks)

    @property
    def batch_size(self) -> int:
        """Segments in the fused model call (prefill chunks + decodes)."""
        return len(self.prefill_chunks) + len(self.decode_sessions)

    @property
    def has_work(self) -> bool:
        return self.model_calls > 0


@_dataclass(frozen=True)
class IterationResult:
    """Outcome of one :meth:`ServingEngine.execute_iteration` call.

    Attributes:
        next_tokens: Each executed session's next greedy token.  For a
            prefill chunk that did not reach the end of its prompt the
            value is the argmax over the chunk's last row — computed for
            free but meaningless mid-prompt; the front end only consumes
            it when the chunk completes the prompt.
        model_calls: Batched transformer calls issued (always 1; typed
            so regression tests pin the fused-iteration contract).
    """

    next_tokens: _Mapping[str, int] = _field(default_factory=dict)
    model_calls: int = 1


class ServingEngine(_Protocol):
    """Everything :class:`ServingFrontend` may ask of its engine.

    The loop owns requests, phases and scheduling; the engine owns
    sessions, their state and how a restoration is carried out.
    """

    @property
    def max_context(self) -> int:
        """Most tokens one session's context may hold (the model's limit)."""

    @property
    def vocab_size(self) -> int:
        """Token ids a prompt may use are ``0 .. vocab_size - 1``."""

    def has_session(self, session_id: str) -> bool: ...

    def open_session(self, session_id: str) -> object: ...

    def history_length(self, session_id: str) -> int:
        """Tokens in the session's log — what its next round builds on."""

    def begin_round(self, session_id: str, total_context: int) -> bool:
        """Prepare an admitted round that grows the session to
        ``total_context`` tokens; ``True`` = its history is evicted and
        must be restored before any of the round can run."""

    def start_restores(
        self, reserve_tokens: _Mapping[str, int], *, background: bool
    ) -> None:
        """Begin restoring these sessions (id -> tokens to reserve), off
        the stepping thread when ``background`` and the engine is able."""

    def finished_restores(self) -> _Sequence[str]:
        """Sessions an iteration may name from now on, each reported
        once.  The engine decides when: at the latest when the restore
        has completed, possibly while its last layers are still landing —
        it then waits, per layer, inside ``execute_iteration``.  A
        restore that failed raises here."""

    def wait_for_restores(self) -> None:
        """Nothing but unreported restores is runnable: return when one
        may have become reportable.  An engine that holds no restore in
        flight may raise instead: nothing would ever become reportable."""

    def execute_iteration(
        self,
        prefill_chunks: _Sequence[tuple[str, np.ndarray]],
        decode_tokens: _Mapping[str, int],
    ) -> IterationResult:
        """One fused iteration: prompt chunks plus one fed token per
        decoding session; returns every executed session's next token."""

    def evict(self, session_id: str) -> None: ...
