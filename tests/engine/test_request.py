"""Tests for the request lifecycle."""

from __future__ import annotations

import pytest

from repro.engine.request import Phase, Request, RequestSpec
from repro.errors import ConfigError, StateError


def spec(**overrides):
    base = dict(
        request_id="r0",
        session_id="s0",
        arrival_time=0.0,
        history_tokens=100,
        input_tokens=10,
        output_tokens=5,
    )
    base.update(overrides)
    return RequestSpec(**base)


class TestSpecValidation:
    def test_total_context(self):
        assert spec().total_context == 115

    def test_zero_history_ok(self):
        assert spec(history_tokens=0).history_tokens == 0

    def test_zero_input_rejected(self):
        with pytest.raises(ConfigError):
            spec(input_tokens=0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigError):
            spec(arrival_time=-1.0)

    def test_negative_history_rejected(self):
        with pytest.raises(ConfigError):
            spec(history_tokens=-1)


class TestLifecycle:
    def test_initial_state(self):
        request = Request(spec=spec())
        assert request.phase is Phase.QUEUED
        assert request.prefill_remaining == 10

    def test_first_token_requires_prefilling(self):
        request = Request(spec=spec())
        with pytest.raises(StateError):
            request.emit(7, 1.0)

    def test_ttft_definition(self):
        request = Request(spec=spec(arrival_time=2.0, output_tokens=1))
        request.phase = Phase.PREFILLING
        request.emit(7, 5.0)
        assert request.phase is Phase.DECODING
        assert request.mark_finished(6.0).ttft == pytest.approx(3.0)

    def test_tbt_definition(self):
        """First to last emitted token: the iteration that feeds and saves
        the last token (ending at ``finished_at``) is not a token gap."""
        request = Request(spec=spec(output_tokens=5))
        request.phase = Phase.PREFILLING
        for i in range(5):
            request.emit(7, 1.0 + 0.25 * i)
        assert request.response is None  # written up only once finished
        response = request.mark_finished(9.0)
        assert response is request.response
        assert response.last_token_at == pytest.approx(2.0)
        assert response.tpot == pytest.approx(1.0 / 4)

    def test_tbt_single_token_output(self):
        request = Request(spec=spec(output_tokens=1))
        request.phase = Phase.PREFILLING
        request.emit(7, 1.0)
        assert request.mark_finished(1.5).tpot == 0.0

    def test_restore_seconds(self):
        request = Request(spec=spec())
        assert request.restore_seconds == 0.0  # nothing restored
        request.restore_started_at = 1.0
        assert request.restore_seconds == 0.0  # still restoring
        request.restore_finished_at = 1.5
        assert request.restore_seconds == pytest.approx(0.5)

    def test_finish_requires_decoding(self):
        request = Request(spec=spec())
        with pytest.raises(StateError):
            request.mark_finished(1.0)


def finished_request(output_tokens=3):
    request = Request(spec=spec(arrival_time=1.0, output_tokens=output_tokens))
    request.admitted_at = 1.25
    request.restore_started_at = 1.25
    request.restore_finished_at = 1.75
    request.phase = Phase.PREFILLING
    for i in range(output_tokens):
        request.emit(10 + i, 2.0 + i)
    return request


class TestResponse:
    def test_response_carries_the_request_timeline(self):
        request = finished_request()
        response = request.mark_finished(6.0)
        assert (response.request_id, response.session_id) == ("r0", "s0")
        assert response.tokens == (10, 11, 12)
        assert response.arrival_time == 1.0
        assert response.admitted_at == 1.25
        assert (response.first_token_at, response.last_token_at) == (2.0, 4.0)
        assert response.finished_at == 6.0
        assert response.restore_seconds == pytest.approx(0.5)

    def test_response_tokens_are_a_snapshot(self):
        """The record is immutable: a later change to the request's token
        list does not reach it."""
        request = finished_request()
        response = request.mark_finished(6.0)
        request.emitted.append(99)
        assert isinstance(response.tokens, tuple)
        assert response.tokens == (10, 11, 12)

    def test_finish_twice_rejected_and_record_kept(self):
        request = finished_request()
        response = request.mark_finished(6.0)
        with pytest.raises(StateError):
            request.mark_finished(7.0)
        assert request.response is response
        assert request.finished_at == 6.0
