"""Property-based tests for the extension modules."""

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


@SETTINGS
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 50)), min_size=1, max_size=60
    ),
    capacity_mb=st.integers(50, 400),
)
def test_tiered_backend_capacity_invariant(accesses, capacity_mb):
    """The DRAM tier never exceeds its capacity, whatever the access mix."""
    from repro.core.profiler import build_storage_array
    from repro.simulator.hardware import platform_preset
    from repro.storage.tiered import TieredBackend

    backend = TieredBackend(
        build_storage_array(platform_preset("default")),
        dram_capacity_bytes=capacity_mb * 1024**2,
    )
    for key, size_mb in accesses:
        nbytes = size_mb * 1024**2
        if key % 2 == 0:
            backend.prefetch(f"ctx{key}", nbytes)
        else:
            backend.read(f"ctx{key}", nbytes, 1024**2)
        assert backend.resident_bytes <= capacity_mb * 1024**2


@SETTINGS
@given(
    n_tokens=st.integers(64, 4096),
    n_gpus=st.sampled_from([1, 2, 4, 8]),
)
def test_allgather_never_dominates(n_tokens, n_gpus):
    """NVLink is fast enough that the collective stays a minor term for
    any realistic shard size — the §5 claim, property-tested."""
    from repro.models.config import model_preset as preset
    from repro.simulator.multi_gpu import allgather_time

    config = preset("opt-30b")
    layer_bytes = n_tokens * config.hidden_bytes_per_token_layer
    pcie_time = layer_bytes / 32e9
    assert allgather_time(layer_bytes, n_gpus) < pcie_time + 25e-6
