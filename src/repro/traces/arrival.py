"""Arrival processes: Poisson session starts and fixed round intervals.

The paper's multi-round experiments start sessions with Poisson arrivals
and space rounds within a session 30 seconds apart (§6.1.1).  This module
turns sampled conversations into the flat, time-ordered request list the
serving simulator consumes; rounds of one conversation share its session
id, and the serving loop never starts round *k+1* before round *k* finishes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.engine.api import ServingRequest
from repro.engine.request import RequestSpec
from repro.errors import ConfigError
from repro.traces.sharegpt import Conversation, ShareGPTGenerator
from repro.traces.zipf import ZipfianSampler

#: §6.1.1: "The interval between conversation rounds in one session is 30s."
ROUND_INTERVAL_SECONDS = 30.0


def poisson_arrival_times(
    rate_per_second: float, n_arrivals: int, seed: int = 0
) -> np.ndarray:
    """Arrival instants of a homogeneous Poisson process."""
    if rate_per_second <= 0:
        raise ConfigError("arrival rate must be positive")
    if n_arrivals <= 0:
        raise ConfigError("n_arrivals must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_second, size=n_arrivals)
    return np.cumsum(gaps)


def conversation_requests(
    conversation: Conversation,
    session_start: float,
    round_interval: float = ROUND_INTERVAL_SECONDS,
) -> list[RequestSpec]:
    """Expand one conversation into its round requests, one per round.

    Round ``k`` arrives ``k * round_interval`` after the session start;
    the serving loop additionally refuses to start it while round
    ``k-1`` of the same session runs, so slow service cannot reorder rounds.
    """
    if round_interval < 0:
        raise ConfigError("round interval must be non-negative")
    return [
        RequestSpec(
            request_id=f"{conversation.session_id}/r{r.round_index}",
            session_id=conversation.session_id,
            arrival_time=session_start + r.round_index * round_interval,
            history_tokens=r.history_tokens,
            input_tokens=r.input_tokens,
            output_tokens=r.output_tokens,
        )
        for r in conversation.rounds
    ]


def build_workload(
    conversations: list[Conversation],
    rate_per_second: float,
    seed: int = 0,
    round_interval: float = ROUND_INTERVAL_SECONDS,
) -> list[RequestSpec]:
    """Poisson-start every conversation and flatten to a sorted request list."""
    if not conversations:
        raise ConfigError("no conversations supplied")
    starts = poisson_arrival_times(rate_per_second, len(conversations), seed)
    specs: list[RequestSpec] = []
    for conversation, start in zip(conversations, starts):
        specs.extend(conversation_requests(conversation, float(start), round_interval))
    return sorted(specs, key=lambda s: s.arrival_time)


def zipf_session_workload(
    n_sessions: int,
    n_requests: int,
    rate_per_second: float,
    *,
    alpha: float | None = 1.0,
    seed: int = 0,
    generator: ShareGPTGenerator | None = None,
    vocab_size: int = 32000,
    slo_ttft_s: float | None = None,
) -> Iterator[ServingRequest]:
    """Streaming arrivals over a large Zipf-popular session population.

    The front-end load experiments (§6.4 popularity, §6.1.1 arrivals)
    draw each request's *session* from a Zipfian popularity law over
    ``n_sessions`` distinct sessions (10^5–10^6 in the paper's sweep) and
    its *lengths* from the ShareGPT round distributions, with Poisson
    arrival instants at the offered ``rate_per_second``.  Requests are
    yielded in arrival order as typed :class:`ServingRequest` objects —
    lazily, so million-session sweeps never materialize the whole trace.

    Repeated draws of one session become consecutive rounds of that
    session: :meth:`ServingFrontend.submit` chains them in order and
    restores the evicted history in between.
    """
    if n_requests <= 0:
        raise ConfigError("n_requests must be positive")
    if vocab_size <= 0:
        raise ConfigError("vocab_size must be positive")
    sampler = ZipfianSampler(n_sessions, alpha, seed=seed)
    arrivals = poisson_arrival_times(rate_per_second, n_requests, seed=seed + 1)
    sessions = sampler.sample(n_requests)
    lengths = generator if generator is not None else ShareGPTGenerator(seed=seed + 2)
    token_rng = np.random.default_rng(seed + 3)
    for arrival, session_index in zip(arrivals, sessions):
        input_tokens, output_tokens = lengths.sample_round()
        yield ServingRequest(
            session_id=f"zipf-{int(session_index)}",
            prompt_tokens=token_rng.integers(0, vocab_size, size=input_tokens),
            max_new_tokens=output_tokens,
            arrival_time=float(arrival),
            slo_ttft_s=slo_ttft_s,
        )
