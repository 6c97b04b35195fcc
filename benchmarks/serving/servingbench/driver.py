"""Closed-loop driver: one thread calling ``step()`` for ``U`` waiting users.

Each user has one request outstanding and sends the next the moment the
previous one finishes (zero think time).  Users join one at a time — user
``k`` sends its first request when user ``k-1`` has its first token — so
a pass does not open with every history restoring at once, a burst a
closed loop never produces again.  All timestamps are the driver's own:
it reads ``handle.tokens()`` after every step and stamps what is new.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.api import ServingRequest
from repro.errors import ReproError

from .workloads import Script, ScriptedRequest


@dataclass
class RequestRecord:
    request: ScriptedRequest
    session_id: str
    submitted_at: float
    token_times: list[float] = field(default_factory=list)
    tokens: tuple[int, ...] = ()
    finished_at: float | None = None
    #: The front end's own timeline (``ServingResponse``), when it finished.
    response: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.finished_at is not None and self.error is None

    @property
    def ttft(self) -> float:
        return self.token_times[0] - self.submitted_at

    @property
    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]

    @property
    def latency(self) -> float:
        assert self.finished_at is not None
        return self.finished_at - self.submitted_at


@dataclass
class StepRecord:
    model_calls: int
    batch_size: int
    prefill_tokens: int


@dataclass
class PassRecord:
    started_at: float
    ended_at: float
    cpu_seconds: float
    requests: list[RequestRecord]
    steps: list[StepRecord]

    @property
    def wall(self) -> float:
        return self.ended_at - self.started_at

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.requests if r.ok]


class _User:
    def __init__(self, requests: tuple[ScriptedRequest, ...]) -> None:
        self.todo = list(requests)
        self.handle: Any = None
        self.record: RequestRecord | None = None
        self.seen = 0
        self.had_token = False

    @property
    def done(self) -> bool:
        return self.handle is None and not self.todo


class ClosedLoopDriver:
    """Replays a :class:`Script` against anything with ``submit``/``step``."""

    def __init__(
        self,
        frontend: Any,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        max_steps: int = 2_000_000,
    ) -> None:
        self.frontend = frontend
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.max_steps = max_steps

    def run_pass(self, script: Script, pass_label: str) -> PassRecord:
        users = [_User(requests) for requests in script.users]
        records: list[RequestRecord] = []
        steps: list[StepRecord] = []
        cpu_start = self.cpu_clock()
        started_at = self.clock()
        joined = 0

        def send(user: _User) -> None:
            # A refused request fails; the user moves on to its next one.
            while user.todo:
                request = user.todo.pop(0)
                record = RequestRecord(
                    request, script.session_id(pass_label, request), self.clock()
                )
                records.append(record)
                try:
                    user.handle = self.frontend.submit(
                        ServingRequest(
                            session_id=record.session_id,
                            prompt_tokens=request.prompt,
                            max_new_tokens=request.max_new_tokens,
                        )
                    )
                except ReproError as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                    continue
                user.record = record
                user.seen = 0
                return
            user.handle = None

        while not all(user.done for user in users):
            # Join rule: the next user starts once the previous one has had
            # a first token (or has nothing left to wait for).
            while joined < len(users) and (
                joined == 0 or users[joined - 1].had_token or users[joined - 1].done
            ):
                send(users[joined])
                joined += 1
            if len(steps) >= self.max_steps:
                raise RuntimeError(f"closed loop still busy after {self.max_steps} steps")
            stats = self.frontend.step()
            now = self.clock()
            steps.append(
                StepRecord(stats.model_calls, stats.batch_size, stats.prefill_tokens)
            )
            for user in users:
                if user.handle is None:
                    continue
                record = user.record
                assert record is not None
                tokens = user.handle.tokens()
                if len(tokens) > user.seen:
                    record.token_times.extend([now] * (len(tokens) - user.seen))
                    user.seen = len(tokens)
                    user.had_token = True
                if user.handle.finished:
                    record.tokens = tokens
                    record.finished_at = now
                    record.response = user.handle.result()
                    send(user)
        ended_at = self.clock()
        return PassRecord(
            started_at=started_at,
            ended_at=ended_at,
            cpu_seconds=self.cpu_clock() - cpu_start,
            requests=records,
            steps=steps,
        )
