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
        request = Request(spec=spec(arrival_time=2.0))
        request.phase = Phase.PREFILLING
        request.emit(7, 5.0)
        assert request.phase is Phase.DECODING
        assert request.ttft == pytest.approx(3.0)

    def test_ttft_before_first_token_rejected(self):
        request = Request(spec=spec())
        with pytest.raises(StateError):
            _ = request.ttft

    def test_tbt_definition(self):
        """First to last emitted token: the iteration that feeds and saves
        the last token (ending at ``finished_at``) is not a token gap."""
        request = Request(spec=spec(output_tokens=5))
        request.phase = Phase.PREFILLING
        for i in range(5):
            request.emit(7, 1.0 + 0.25 * i)
        request.mark_finished(9.0)
        assert request.last_token_at == pytest.approx(2.0)
        assert request.tbt == pytest.approx(1.0 / 4)

    def test_tbt_single_token_output(self):
        request = Request(spec=spec(output_tokens=1))
        request.phase = Phase.PREFILLING
        request.emit(7, 1.0)
        request.mark_finished(1.5)
        assert request.tbt == 0.0

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

    def test_tbt_before_finish_rejected(self):
        request = Request(spec=spec())
        request.phase = Phase.PREFILLING
        request.emit(7, 1.0)
        with pytest.raises(StateError):
            _ = request.tbt
