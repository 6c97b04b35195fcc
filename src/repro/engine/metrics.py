"""Serving-quality metric collection (§2.2, §6 "Metrics").

TTFT measures the restoration + prefill + queueing path; TBT measures the
steady decode cadence.  The collector aggregates per-request samples into
the summary statistics the paper plots: mean/median/p95 TTFT, mean TBT,
and sustained throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.request import Phase, Request
from repro.errors import StateError


@dataclass(frozen=True)
class RequestRecord:
    """Immutable per-request measurement.

    ``restore_seconds`` runs from the step that started the request's
    restoration to the step that settled it, so it includes any wait for
    the restore IO path; 0 for a request that restored nothing.
    """

    request_id: str
    session_id: str
    arrival_time: float
    ttft: float
    tbt: float
    queue_delay: float
    restore_seconds: float
    output_tokens: int
    finished_at: float


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


@dataclass
class MetricsCollector:
    """Accumulates finished requests and summarizes them."""

    records: list[RequestRecord] = field(default_factory=list)

    def observe(self, request: Request) -> RequestRecord:
        """Record a finished request."""
        if request.phase is not Phase.FINISHED:
            raise StateError("can only observe finished requests")
        queue_delay = request.admitted_at - request.spec.arrival_time
        record = RequestRecord(
            request_id=request.spec.request_id,
            session_id=request.spec.session_id,
            arrival_time=request.spec.arrival_time,
            ttft=request.ttft,
            tbt=request.tbt,
            queue_delay=queue_delay,
            restore_seconds=request.restore_seconds,
            output_tokens=request.spec.output_tokens,
            finished_at=request.finished_at,
        )
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def summarize(self) -> ServingReport:
        """Aggregate everything observed so far."""
        if not self.records:
            raise StateError("no finished requests to summarize")
        ttfts = np.array([r.ttft for r in self.records])
        tbts = np.array([r.tbt for r in self.records if r.output_tokens > 1])
        if tbts.size == 0:
            tbts = np.array([0.0])
        start = min(r.arrival_time for r in self.records)
        end = max(r.finished_at for r in self.records)
        duration = max(end - start, 1e-9)
        total_tokens = sum(r.output_tokens for r in self.records)
        return ServingReport(
            n_requests=len(self.records),
            duration=duration,
            mean_ttft=float(ttfts.mean()),
            p50_ttft=float(np.percentile(ttfts, 50)),
            p95_ttft=float(np.percentile(ttfts, 95)),
            mean_tbt=float(tbts.mean()),
            p95_tbt=float(np.percentile(tbts, 95)),
            requests_per_second=len(self.records) / duration,
            tokens_per_second=total_tokens / duration,
            p99_ttft=float(np.percentile(ttfts, 99)),
            p50_tbt=float(np.percentile(tbts, 50)),
            p99_tbt=float(np.percentile(tbts, 99)),
        )
