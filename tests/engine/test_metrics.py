"""Tests for serving metrics collection."""

from __future__ import annotations

import pytest

from repro.engine.metrics import MetricsCollector
from repro.engine.request import Phase, Request, RequestSpec
from repro.errors import StateError


def finished_request(rid: str, arrival: float, first: float, finish: float, out: int = 4):
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
    request.mark_finished(finish)
    return request


class TestCollector:
    def test_observe_unfinished_rejected(self):
        collector = MetricsCollector()
        request = Request(
            spec=RequestSpec("r", "s", 0.0, 0, 1, 1)
        )
        with pytest.raises(StateError):
            collector.observe(request)

    def test_record_fields(self):
        collector = MetricsCollector()
        record = collector.observe(finished_request("r", 1.0, 2.0, 5.0))
        assert record.ttft == pytest.approx(1.0)
        assert record.tbt == pytest.approx(1.0)
        assert record.queue_delay == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(StateError):
            MetricsCollector().summarize()

    def test_summary_statistics(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.observe(
                finished_request(f"r{i}", float(i), float(i) + 0.1, float(i) + 1.1)
            )
        report = collector.summarize()
        assert report.n_requests == 10
        assert report.mean_ttft == pytest.approx(0.1)
        assert report.p50_ttft == pytest.approx(0.1)
        assert report.mean_tbt == pytest.approx(1.0 / 3)

    def test_throughput_definition(self):
        collector = MetricsCollector()
        collector.observe(finished_request("a", 0.0, 0.5, 1.0))
        collector.observe(finished_request("b", 1.0, 1.5, 10.0))
        report = collector.summarize()
        assert report.requests_per_second == pytest.approx(2 / 10.0)
        assert report.tokens_per_second == pytest.approx(8 / 10.0)

    def test_single_token_requests_have_zero_tbt(self):
        collector = MetricsCollector()
        collector.observe(finished_request("a", 0.0, 0.5, 0.5, out=1))
        report = collector.summarize()
        assert report.mean_tbt == 0.0

    def test_describe(self):
        collector = MetricsCollector()
        collector.observe(finished_request("a", 0.0, 0.5, 1.0))
        assert "TTFT" in collector.summarize().describe()

    def test_len(self):
        collector = MetricsCollector()
        assert len(collector) == 0
        collector.observe(finished_request("a", 0.0, 0.5, 1.0))
        assert len(collector) == 1
