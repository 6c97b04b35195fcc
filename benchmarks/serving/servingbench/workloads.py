"""The three workloads and the fixed request script each seed expands to.

A workload is a closed loop: ``users`` clients, zero think time, one
outstanding request each, several rounds per user.  One *pass* is the same
set of requests every time — same prompts, same output lengths, fresh
session ids — so the counts of a pass repeat exactly and its timings can be
compared pass to pass.

The seed draws every token id (history, prompts) and every request's output
length.  Lengths lie within +-50 % of the workload's mean, so users do not
run in lock-step; they are drawn *without replacement* from a fixed multiset
per user whose sums are equal, so every user and every seed asks for the
same total work: runs of different seeds can be compared, and users finish a
pass together instead of tailing off one by one.  The seed also draws, pass
by pass, the order in which each user sends its requests: which requests
overlap (two restores, a prefill and a decode step) is decided by that
order, and a run whose five passes all replayed one order would report that
one interleaving instead of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EVICTED_CLONE = "evicted_clone"
RESIDENT_CLONE = "resident_clone"
FRESH = "fresh"

#: Measured passes per run.  A constant, not a knob: the reported value of a
#: timing metric is the median over exactly these passes.
MEASURED_PASSES = 5
#: Rounds per user of the unmeasured warm-up pass.
WARMUP_ROUNDS = 1
#: A request meets the SLO when its TTFT is within SLO_TTFT_FACTOR x the
#: workload's baseline ``ttft_p75_ms`` and its mean token gap within
#: SLO_TBT_FACTOR x the baseline ``tbt_p90_ms``.  The issue asked for 2x on
#: both; 2x the TTFT tail lies inside ``doc_ingest``'s second TTFT mode (a
#: request queued behind the other user's prefill takes two prefills) and in
#: ``chat_restore``'s collision tail, where unchanged code scored 0.88-1.0
#: (README, "SLO limits"); 3x is the smallest whole factor it clears.
SLO_TTFT_FACTOR = 3.0
SLO_TBT_FACTOR = 2.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        sessions: Every request gets a session of its own; this is where
            its history comes from — a clone of the template that is
            evicted (the request restores it), the same clone made
            resident before the pass (no restore), or no history at all.
        history_tokens: Length of the template history (0: none).
        prompt_tokens: New tokens per request.
        length_sets: One multiset of output lengths per user, all with the
            same sum; the seed deals the sets to the users and orders each.
        evict_on_finish: Front-end churn mode.
        baseline_ttft_p75_ms / baseline_tbt_p90_ms: The workload's tails when
            the benchmark was defined (medians of the A/A study), frozen: the
            SLO limits are multiples of them.
    """

    name: str
    why: str
    sessions: str
    history_tokens: int
    prompt_tokens: int
    length_sets: tuple[tuple[int, ...], ...]
    evict_on_finish: bool
    baseline_ttft_p75_ms: float
    baseline_tbt_p90_ms: float

    def __post_init__(self) -> None:
        if len({sum(lengths) for lengths in self.length_sets}) != 1:
            raise ValueError(f"{self.name}: every user must ask for the same total")

    @property
    def slo_ttft_ms(self) -> float:
        return SLO_TTFT_FACTOR * self.baseline_ttft_p75_ms

    @property
    def slo_tbt_ms(self) -> float:
        return SLO_TBT_FACTOR * self.baseline_tbt_p90_ms

    @property
    def users(self) -> int:
        """Closed-loop clients."""
        return len(self.length_sets)

    @property
    def requests_per_pass(self) -> int:
        return sum(len(lengths) for lengths in self.length_sets)

    @property
    def expects_restores(self) -> bool:
        return self.sessions == EVICTED_CLONE


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chat_restore",
            why=(
                "every request lands on an evicted 512-token history, so the restore "
                "(storage reads + K/V projection) is on the critical path of every "
                "TTFT while the other users decode"
            ),
            sessions=EVICTED_CLONE,
            history_tokens=512,
            prompt_tokens=16,
            length_sets=((12, 24, 36), (14, 26, 32), (16, 22, 34), (18, 25, 29)),
            evict_on_finish=True,
            baseline_ttft_p75_ms=370.0,
            baseline_tbt_p90_ms=175.0,
        ),
        Workload(
            name="chat_resident",
            why=(
                "same users and prompts on sessions that stay resident: zero restores, "
                "so batched decode, the per-token save path and step overhead do the "
                "work; the bypass workload for any restore change"
            ),
            sessions=RESIDENT_CLONE,
            history_tokens=512,
            prompt_tokens=16,
            length_sets=((32, 48, 64), (36, 52, 56), (40, 44, 60), (34, 50, 60)),
            evict_on_finish=False,
            baseline_ttft_p75_ms=138.0,
            baseline_tbt_p90_ms=128.0,
        ),
        Workload(
            name="doc_ingest",
            why=(
                "fresh sessions with long prompts and short outputs: chunked prefill, "
                "bulk state writes and prefill-stalls-decode interference dominate, "
                "with zero restores and almost no decode"
            ),
            sessions=FRESH,
            history_tokens=0,
            prompt_tokens=256,
            length_sets=((4, 5, 6, 6, 7, 8), (4, 5, 5, 7, 7, 8)),
            evict_on_finish=True,
            baseline_ttft_p75_ms=830.0,
            baseline_tbt_p90_ms=745.0,
        ),
    )
}


@dataclass(frozen=True)
class ScriptedRequest:
    user: int
    #: Which of the user's requests this is; names its session, not its turn.
    round: int
    prompt: np.ndarray
    max_new_tokens: int


@dataclass(frozen=True)
class Script:
    """What one seed asks of one workload in every pass."""

    workload: Workload
    seed: int
    history: np.ndarray | None
    #: ``users[u]`` is user ``u``'s requests in the order it sends them.
    users: tuple[tuple[ScriptedRequest, ...], ...]

    def session_id(self, pass_label: str, request: ScriptedRequest) -> str:
        return f"{pass_label}-u{request.user}-r{request.round}"

    def session_ids(self, pass_label: str) -> list[str]:
        return [
            self.session_id(pass_label, request)
            for requests in self.users
            for request in requests
        ]

    def truncated(self, rounds: int) -> "Script":
        """The first ``rounds`` requests of every user (the warm-up)."""
        return Script(
            self.workload,
            self.seed,
            self.history,
            tuple(requests[:rounds] for requests in self.users),
        )

    def ordered(self, pass_index: int) -> "Script":
        """The same requests, each user sending its own in this pass's order."""
        rng = np.random.default_rng([self.seed, 2, pass_index])
        return Script(
            self.workload,
            self.seed,
            self.history,
            tuple(
                tuple(requests[i] for i in rng.permutation(len(requests)))
                for requests in self.users
            ),
        )


def make_script(workload: Workload, seed: int, vocab_size: int) -> Script:
    """Expand ``seed`` into the workload's inputs; same seed, same inputs."""
    # One stream for every workload: the chat workloads draw the same
    # history and prompts, so they differ only in where the history lives.
    rng = np.random.default_rng(seed)
    history = (
        rng.integers(0, vocab_size, workload.history_tokens)
        if workload.history_tokens
        else None
    )
    prompts = [
        rng.integers(0, vocab_size, workload.prompt_tokens) for _ in range(workload.users)
    ]
    # Lengths come from a stream of their own, so adding a user or a round
    # leaves the token ids of the others alone.
    lengths_rng = np.random.default_rng([seed, 1])
    dealt = lengths_rng.permutation(workload.users)
    users = []
    for user, prompt in enumerate(prompts):
        lengths = lengths_rng.permutation(workload.length_sets[dealt[user]])
        users.append(
            tuple(
                ScriptedRequest(user, round_, prompt, int(length))
                for round_, length in enumerate(lengths)
            )
        )
    return Script(workload, seed, history, tuple(users))
