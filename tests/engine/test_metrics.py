"""Tests for serving metrics: the response record and its summary."""

from __future__ import annotations

import pytest

from repro.engine.metrics import summarize
from repro.engine.request import Phase, Request, RequestSpec
from repro.errors import StateError


def finished_response(rid: str, arrival: float, first: float, finish: float, out: int = 4):
    """The response a request arriving, first emitting and finishing at
    these times writes up (every later token is emitted at ``finish``)."""
    request = Request(
        spec=RequestSpec(
            request_id=rid,
            session_id=f"s-{rid}",
            arrival_time=arrival,
            history_tokens=10,
            input_tokens=5,
            output_tokens=out,
        )
    )
    request.admitted_at = arrival
    request.phase = Phase.PREFILLING
    request.emit(0, first)
    for _ in range(out - 1):
        request.emit(0, finish)
    return request.mark_finished(finish)


class TestSummarize:
    def test_record_fields(self):
        record = finished_response("r", 1.0, 2.0, 5.0)
        assert record.ttft == pytest.approx(1.0)
        assert record.tpot == pytest.approx(1.0)
        assert record.admitted_at - record.arrival_time == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(StateError):
            summarize([])

    def test_summary_statistics(self):
        report = summarize(
            [
                finished_response(f"r{i}", float(i), float(i) + 0.1, float(i) + 1.1)
                for i in range(10)
            ]
        )
        assert report.n_requests == 10
        assert report.mean_ttft == pytest.approx(0.1)
        assert report.p50_ttft == pytest.approx(0.1)
        assert report.mean_tbt == pytest.approx(1.0 / 3)

    def test_throughput_definition(self):
        report = summarize(
            [finished_response("a", 0.0, 0.5, 1.0), finished_response("b", 1.0, 1.5, 10.0)]
        )
        assert report.requests_per_second == pytest.approx(2 / 10.0)
        assert report.tokens_per_second == pytest.approx(8 / 10.0)

    def test_single_token_requests_have_zero_tbt(self):
        report = summarize([finished_response("a", 0.0, 0.5, 0.5, out=1)])
        assert report.mean_tbt == 0.0

    def test_describe(self):
        assert "TTFT" in summarize([finished_response("a", 0.0, 0.5, 1.0)]).describe()
