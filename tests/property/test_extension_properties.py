"""Property-based tests for the GQA extension."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gqa import hidden_to_kv_ratio, with_kv_heads
from repro.models.config import model_preset

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(kv_heads=st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_gqa_ratio_formula(kv_heads):
    """hidden/KV = heads / (2 * kv_heads), exactly."""
    config = with_kv_heads(model_preset("llama2-7b"), kv_heads)
    assert hidden_to_kv_ratio(config) == config.n_heads / (2 * kv_heads)

