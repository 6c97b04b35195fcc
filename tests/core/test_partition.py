"""Tests for partition schemes (§4.1.1, Table 3 storage accounting)."""

from __future__ import annotations

import pytest

from repro.core.partition import LayerMethod, PartitionScheme, TokenPartition
from repro.errors import ConfigError, SchedulingError


class TestConstruction:
    def test_pure_hcache(self):
        scheme = PartitionScheme.pure_hcache(8)
        assert scheme.n_hidden == 8
        assert scheme.n_other == 0

    def test_kv_suffix(self):
        scheme = PartitionScheme.with_kv_suffix(10, 3)
        assert scheme.n_hidden == 7
        assert scheme.n_kv == 3
        assert scheme.layers_with(LayerMethod.KV) == (7, 8, 9)

    def test_recompute_prefix(self):
        scheme = PartitionScheme.with_recompute_prefix(10, 4)
        assert scheme.n_recompute == 4
        assert scheme.layers_with(LayerMethod.RECOMPUTE) == (0, 1, 2, 3)

    def test_recompute_must_be_prefix(self):
        with pytest.raises(SchedulingError):
            PartitionScheme((LayerMethod.HIDDEN, LayerMethod.RECOMPUTE))

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            PartitionScheme(())

    def test_out_of_range_counts(self):
        with pytest.raises(SchedulingError):
            PartitionScheme.with_kv_suffix(4, 5)
        with pytest.raises(SchedulingError):
            PartitionScheme.with_recompute_prefix(4, -1)

    def test_counts_sum_to_layers(self):
        scheme = PartitionScheme.with_kv_suffix(32, 5)
        assert scheme.n_hidden + scheme.n_kv + scheme.n_recompute == scheme.n_layers


class TestDescribe:
    def test_table3_format(self):
        assert PartitionScheme.with_kv_suffix(32, 1).describe() == "31 H + 1 KV"
        assert PartitionScheme.with_recompute_prefix(48, 8).describe() == "40 H + 8 RE"
        assert PartitionScheme.pure_hcache(4).describe() == "4 H"


class TestStorageCost:
    def test_pure_hcache_half_of_kv(self, seven_b):
        scheme = PartitionScheme.pure_hcache(seven_b.n_layers)
        assert scheme.storage_bytes_per_token(seven_b) * 2 == seven_b.kv_bytes_per_token

    def test_recompute_layers_store_nothing(self, seven_b):
        full = PartitionScheme.pure_hcache(seven_b.n_layers)
        some_recompute = PartitionScheme.with_recompute_prefix(seven_b.n_layers, 8)
        assert (
            some_recompute.storage_bytes_per_token(seven_b)
            < full.storage_bytes_per_token(seven_b)
        )

    def test_kv_layers_cost_double(self, seven_b):
        scheme = PartitionScheme.with_kv_suffix(seven_b.n_layers, 1)
        pure = PartitionScheme.pure_hcache(seven_b.n_layers)
        delta = scheme.storage_bytes_per_token(seven_b) - pure.storage_bytes_per_token(
            seven_b
        )
        assert delta == seven_b.hidden_bytes_per_token_layer

    def test_paper_storage_band(self, seven_b, thirteen_b, opt_30b):
        """Table 3: HCache stores 1.92-2.40x less than KV offload.

        Evaluated on the paper's reported schedules (31H+1KV, 36H+4KV,
        40H+8RE)."""
        schemes = {
            "llama2-7b": (seven_b, PartitionScheme.with_kv_suffix(32, 1)),
            "llama2-13b": (thirteen_b, PartitionScheme.with_kv_suffix(40, 4)),
            "opt-30b": (opt_30b, PartitionScheme.with_recompute_prefix(48, 8)),
        }
        for config, scheme in schemes.values():
            ratio = config.kv_bytes_per_token / scheme.storage_bytes_per_token(config)
            assert 1.8 <= ratio <= 2.5

    def test_model_mismatch_rejected(self, seven_b):
        with pytest.raises(ConfigError):
            PartitionScheme.pure_hcache(10).storage_bytes_per_token(seven_b)


class TestTokenPartition:
    def test_totals(self):
        part = TokenPartition(100, 28)
        assert part.total_tokens == 128

    def test_negative_rejected(self):
        with pytest.raises(SchedulingError):
            TokenPartition(-1, 5)
