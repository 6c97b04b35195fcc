"""Serving-quality metric collection (§2.2, §6 "Metrics").

TTFT measures the restoration + prefill + queueing path; TBT measures the
steady decode cadence.  :func:`summarize` aggregates finished requests'
:class:`~repro.engine.api.ServingResponse` records — the one record of a
finished request, the object the caller's handle resolves to — into the
summary statistics the paper plots: mean/median/p95 TTFT, mean TBT, and
sustained throughput.  Nothing here keeps responses: whoever wants a
report holds the ones it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.api import ServingResponse
from repro.errors import StateError


@dataclass
class ServingReport:
    """Aggregated serving metrics over one simulation run."""

    n_requests: int
    duration: float
    mean_ttft: float
    p50_ttft: float
    p95_ttft: float
    mean_tbt: float
    p95_tbt: float
    requests_per_second: float
    tokens_per_second: float
    # Tail percentiles the front-end bench plots (defaults keep older
    # pickled/JSON reports loadable).
    p99_ttft: float = 0.0
    p50_tbt: float = 0.0
    p99_tbt: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.n_requests} reqs in {self.duration:.1f}s | "
            f"TTFT mean {self.mean_ttft * 1e3:.1f}ms p95 {self.p95_ttft * 1e3:.1f}ms "
            f"p99 {self.p99_ttft * 1e3:.1f}ms | "
            f"TBT mean {self.mean_tbt * 1e3:.2f}ms | "
            f"{self.requests_per_second:.3f} req/s, {self.tokens_per_second:.1f} tok/s"
        )


def summarize(responses: Sequence[ServingResponse]) -> ServingReport:
    """Aggregate finished requests' responses into one report."""
    if not responses:
        raise StateError("no finished requests to summarize")
    ttfts = np.array([r.ttft for r in responses])
    tbts = np.array([r.tpot for r in responses if len(r.tokens) > 1])
    if tbts.size == 0:
        tbts = np.array([0.0])
    start = min(r.arrival_time for r in responses)
    end = max(r.finished_at for r in responses)
    duration = max(end - start, 1e-9)
    total_tokens = sum(len(r.tokens) for r in responses)
    return ServingReport(
        n_requests=len(responses),
        duration=duration,
        mean_ttft=float(ttfts.mean()),
        p50_ttft=float(np.percentile(ttfts, 50)),
        p95_ttft=float(np.percentile(ttfts, 95)),
        mean_tbt=float(tbts.mean()),
        p95_tbt=float(np.percentile(tbts, 95)),
        requests_per_second=len(responses) / duration,
        tokens_per_second=total_tokens / duration,
        p99_ttft=float(np.percentile(ttfts, 99)),
        p50_tbt=float(np.percentile(tbts, 50)),
        p99_tbt=float(np.percentile(tbts, 99)),
    )
