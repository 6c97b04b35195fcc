"""Tests for arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traces.arrival import (
    ROUND_INTERVAL_SECONDS,
    build_workload,
    conversation_requests,
    poisson_arrival_times,
)
from repro.traces.sharegpt import ShareGPTGenerator


class TestPoisson:
    def test_arrival_count(self):
        times = poisson_arrival_times(1.0, 100, seed=0)
        assert len(times) == 100

    def test_sorted(self):
        times = poisson_arrival_times(0.5, 50, seed=1)
        assert np.all(np.diff(times) >= 0)

    def test_mean_rate(self):
        times = poisson_arrival_times(2.0, 5000, seed=2)
        rate = len(times) / times[-1]
        assert rate == pytest.approx(2.0, rel=0.1)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            poisson_arrival_times(0.0, 10)

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            poisson_arrival_times(1.0, 0)


class TestConversationRequests:
    def test_round_spacing_is_30s(self):
        conv = ShareGPTGenerator(seed=3).sample_conversation("s")
        specs = conversation_requests(conv, session_start=100.0)
        gaps = np.diff([s.arrival_time for s in specs])
        assert np.allclose(gaps, ROUND_INTERVAL_SECONDS)

    def test_rounds_share_their_session_in_round_order(self):
        conv = ShareGPTGenerator(seed=4).sample_conversation("s")
        specs = conversation_requests(conv, 0.0)
        assert {spec.session_id for spec in specs} == {"s"}
        assert [spec.request_id for spec in specs] == [
            f"s/r{r.round_index}" for r in conv.rounds
        ]

    def test_history_matches_rounds(self):
        conv = ShareGPTGenerator(seed=5).sample_conversation("s")
        specs = conversation_requests(conv, 0.0)
        for spec, r in zip(specs, conv.rounds):
            assert spec.history_tokens == r.history_tokens

    def test_negative_interval_rejected(self):
        conv = ShareGPTGenerator(seed=6).sample_conversation("s")
        with pytest.raises(ConfigError):
            conversation_requests(conv, 0.0, round_interval=-1.0)


class TestBuildWorkload:
    def test_sorted_by_arrival(self):
        convs = ShareGPTGenerator(seed=7).sample_many(10)
        specs = build_workload(convs, rate_per_second=1.0, seed=8)
        times = [s.arrival_time for s in specs]
        assert times == sorted(times)

    def test_request_count(self):
        convs = ShareGPTGenerator(seed=9).sample_many(10)
        specs = build_workload(convs, rate_per_second=1.0, seed=10)
        assert len(specs) == sum(c.n_rounds for c in convs)

    def test_ids_unique(self):
        convs = ShareGPTGenerator(seed=11).sample_many(10)
        specs = build_workload(convs, rate_per_second=1.0, seed=12)
        ids = [s.request_id for s in specs]
        assert len(set(ids)) == len(ids)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            build_workload([], rate_per_second=1.0)
