"""Property-style equivalence tests for the amortized-growth hot path.

Every optimized buffer (KVCache backing store, HiddenCapture, batched
restoration projection) must be **bit-exact** against the preserved naive
reference implementations in :mod:`repro.models.reference` under
interleaved append/truncate/install sequences, generation with capture,
and save -> seal -> append -> restore round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.errors import ConfigError, StateError
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.reference import (
    NaiveKVCache,
    naive_generate_capture,
    naive_restore_cache_from_hidden,
)


def kv_rows(config, n, rng):
    shape = (n, config.n_kv_heads, config.head_dim)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


def prompt(config, n, seed=0):
    return np.random.default_rng(seed).integers(0, config.vocab_size, size=n)


class TestInterleavedOpsMatchNaive:
    def test_random_interleavings_bit_exact(self, tiny_config):
        """append/truncate/install/clear in any order match the naive cache."""
        rng = np.random.default_rng(42)
        for _trial in range(8):
            fast, naive = KVCache(tiny_config), NaiveKVCache(tiny_config)
            for _step in range(40):
                op = int(rng.integers(0, 6))
                if op <= 2:  # bias towards the hot-path append
                    k, v = kv_rows(tiny_config, int(rng.integers(1, 9)), rng)
                    for layer in range(tiny_config.n_layers):
                        fast.append(layer, k, v)
                        naive.append(layer, k, v)
                elif op == 3:
                    n_t = int(rng.integers(0, len(naive) + 1))
                    fast.truncate(n_t)
                    naive.truncate(n_t)
                elif op == 4:
                    m = int(rng.integers(0, 12))
                    for layer in range(tiny_config.n_layers):
                        k, v = kv_rows(tiny_config, m, rng)
                        fast.install(layer, k, v)
                        naive.install(layer, k, v)
                else:
                    fast.clear()
                    naive.clear()
                assert len(fast) == len(naive)
                fast.debug_validate()
            assert fast.equals(naive, atol=0.0)
            assert naive.equals(fast, atol=0.0)
            assert fast.nbytes() == naive.nbytes()

    def test_packed_roundtrip_matches_naive(self, tiny_config):
        rng = np.random.default_rng(7)
        fast, naive = KVCache(tiny_config), NaiveKVCache(tiny_config)
        k, v = kv_rows(tiny_config, 77, rng)
        fast.append(1, k, v)
        naive.append(1, k, v)
        assert np.array_equal(fast.packed_layer(1), naive.packed_layer(1))
        other_fast, other_naive = KVCache(tiny_config), NaiveKVCache(tiny_config)
        other_fast.install_packed(1, naive.packed_layer(1))
        other_naive.install_packed(1, fast.packed_layer(1))
        assert other_fast.equals(other_naive, atol=0.0)

    def test_packed_rows_match_packed_layer_slices(self, tiny_config):
        rng = np.random.default_rng(8)
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 50, rng)
        cache.append(0, k, v)
        full = cache.packed_layer(0)
        for start, stop in ((0, 50), (10, 30), (49, 50), (20, 20)):
            assert np.array_equal(cache.packed_rows(0, start, stop), full[start:stop])
        with pytest.raises(ConfigError):
            cache.packed_rows(0, 10, 51)
        with pytest.raises(ConfigError):
            cache.packed_rows(0, -1, 5)

    def test_mismatched_layers_still_detected(self, tiny_config):
        """The O(1) length invariant preserves the disagreement check."""
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 2, np.random.default_rng(0))
        cache.append(0, k, v)
        with pytest.raises(StateError):
            len(cache)
        cache.debug_validate()  # the histogram itself stays consistent

    def test_views_stable_across_append(self, tiny_config):
        """Views returned before an in-capacity append keep their content."""
        rng = np.random.default_rng(9)
        cache = KVCache(tiny_config)
        cache.reserve(64)
        k1, v1 = kv_rows(tiny_config, 5, rng)
        cache.append(0, k1, v1)
        view_k, _ = cache.get(0)
        snapshot = view_k.copy()
        k2, v2 = kv_rows(tiny_config, 7, rng)
        cache.append(0, k2, v2)
        assert view_k.shape == (5, tiny_config.n_kv_heads, tiny_config.head_dim)
        assert np.array_equal(view_k, snapshot)

    def test_views_detach_on_growth_reallocation(self, tiny_config):
        """The documented caveat: growth reallocations leave old views as
        stale snapshots of the pre-growth buffer."""
        rng = np.random.default_rng(19)
        cache = KVCache(tiny_config)
        k1, v1 = kv_rows(tiny_config, 4, rng)
        cache.append(0, k1, v1)
        view_k, _ = cache.get(0)
        k2, v2 = kv_rows(tiny_config, cache.capacity + 1, rng)
        cache.append(0, k2, v2)  # forces a reallocation
        assert np.array_equal(view_k, k1)  # stale snapshot, old content
        assert not np.shares_memory(view_k, cache.get(0)[0])

    def test_reserve_preserves_content(self, tiny_config):
        rng = np.random.default_rng(10)
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 3, rng)
        for layer in range(tiny_config.n_layers):
            cache.append(layer, k, v)
        cache.reserve(500)
        assert cache.capacity >= 500
        got_k, got_v = cache.get(0)
        assert np.array_equal(got_k, k)
        assert np.array_equal(got_v, v)


class TestInstallFastPaths:
    def test_install_view_writes_into_storage(self, tiny_config):
        rng = np.random.default_rng(13)
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 6, rng)
        k_view, v_view = cache.install_view(0, 6)
        k_view[...] = k
        v_view[...] = v
        got_k, got_v = cache.get(0)
        assert np.array_equal(got_k, k)
        assert np.array_equal(got_v, v)
        assert cache.layer_len(0) == 6

    def test_install_from_own_views_is_safe(self, tiny_config):
        rng = np.random.default_rng(14)
        cache = KVCache(tiny_config)
        k, v = kv_rows(tiny_config, 4, rng)
        cache.append(0, k, v)
        cache.install(1, *cache.get(0))
        assert np.array_equal(cache.get(1)[0], k)


class TestHiddenCapture:
    def test_growth_and_views(self):
        cap = HiddenCapture(3, 8)
        rng = np.random.default_rng(15)
        blocks = [rng.normal(size=(m, 8)).astype(np.float32) for m in (5, 1, 1, 30)]
        for block in blocks:
            start = cap.extend(block.shape[0])
            for layer in range(3):
                cap.write(layer, start, block + layer)
        expected = np.concatenate(blocks, axis=0)
        assert len(cap) == expected.shape[0]
        for layer in range(3):
            assert np.array_equal(cap.layer_view(layer), expected + layer)
        assert cap.stacked().shape == (3, expected.shape[0], 8)
        tail = cap.block_views(expected.shape[0] - 2, expected.shape[0])
        assert np.array_equal(tail[1], expected[-2:] + 1)

    def test_reserve_skips_reallocation(self):
        cap = HiddenCapture(2, 4)
        cap.reserve(100)
        buf_before = cap.stacked().base
        for _ in range(100):
            start = cap.extend(1)
            cap.write(0, start, np.zeros((1, 4), dtype=np.float32))
            cap.write(1, start, np.zeros((1, 4), dtype=np.float32))
        assert cap.stacked().base is buf_before

    def test_bounds_checked(self):
        cap = HiddenCapture(2, 4)
        cap.extend(3)
        with pytest.raises(ConfigError):
            cap.write(5, 0, np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            cap.write(0, 2, np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            cap.block_views(0, 9)


class TestGenerateCaptureEquivalence:
    def test_generate_matches_naive_accumulation(self, tiny_model, tiny_config):
        p = prompt(tiny_config, 6, seed=21)
        fast_tokens, fast_cache, fast_cap = tiny_model.generate(
            p, 12, capture_hidden=True
        )
        naive_tokens, naive_cache, naive_cap = naive_generate_capture(
            tiny_model, p, 12
        )
        assert fast_tokens == naive_tokens
        assert fast_cache.equals(naive_cache, atol=0.0)
        assert len(fast_cap) == len(naive_cap) == tiny_config.n_layers
        for a, b in zip(fast_cap, naive_cap):
            assert np.array_equal(a, b)

    def test_forward_capture_views_match_copies(self, tiny_model, tiny_config):
        p = prompt(tiny_config, 9, seed=22)
        result, _ = tiny_model.prefill(p, capture_hidden=True)
        cap = HiddenCapture(tiny_config.n_layers, tiny_config.hidden_size)
        result2 = tiny_model.forward(p, KVCache(tiny_config), capture=cap)
        for a, b in zip(result.hidden_states, result2.hidden_states):
            assert np.array_equal(a, b)
        for layer in range(tiny_config.n_layers):
            assert np.array_equal(cap.layer_view(layer), result.hidden_states[layer])


class TestBatchedRestore:
    def test_restore_matches_naive_bit_exact(self, tiny_model, tiny_config):
        result, cache = tiny_model.prefill(prompt(tiny_config, 33, seed=23), capture_hidden=True)
        fast = tiny_model.restore_cache_from_hidden(result.hidden_states)
        naive = naive_restore_cache_from_hidden(tiny_model, result.hidden_states)
        assert fast.equals(naive, atol=0.0)
        assert fast.equals(cache, atol=0.0)

    def test_restore_opt_architecture_matches_naive(self, tiny_opt_model, tiny_opt_config):
        """LayerNorm + no-RoPE models take the non-rotating branch."""
        result, cache = tiny_opt_model.prefill(
            prompt(tiny_opt_config, 21, seed=24), capture_hidden=True
        )
        fast = tiny_opt_model.restore_cache_from_hidden(result.hidden_states)
        naive = naive_restore_cache_from_hidden(tiny_opt_model, result.hidden_states)
        assert fast.equals(naive, atol=0.0)
        assert fast.equals(cache, atol=0.0)

    def test_whole_layer_granules_match_per_layer(self, tiny_model, tiny_config):
        result, _ = tiny_model.prefill(prompt(tiny_config, 17, seed=25), capture_hidden=True)
        pos = np.arange(17)
        restored = tiny_model.restore_cache_from_hidden(result.hidden_states)
        for layer in range(tiny_config.n_layers):
            k, v = tiny_model.project_kv(layer, result.hidden_states[layer], pos)
            got_k, got_v = restored.get(layer)
            assert np.array_equal(got_k, k)
            assert np.array_equal(got_v, v)

    def test_kernel_projects_a_layer_subset(self, tiny_model, tiny_config):
        result, _ = tiny_model.prefill(prompt(tiny_config, 11, seed=26), capture_hidden=True)
        pos = np.arange(11)
        workspace = tiny_model.restore_workspace(pos, 11)
        for layer in (1, 3):
            k_out = np.empty((11, tiny_config.n_kv_heads, tiny_config.head_dim), np.float32)
            v_out = np.empty_like(k_out)
            tiny_model.project_kv_chunk(
                layer, result.hidden_states[layer], 0, k_out, v_out, workspace
            )
            k, v = tiny_model.project_kv(layer, result.hidden_states[layer], pos)
            assert np.array_equal(k_out, k)
            assert np.array_equal(v_out, v)

    def test_kernel_projects_into_reserved_cache(self, tiny_model, tiny_config):
        result, _ = tiny_model.prefill(prompt(tiny_config, 13, seed=31), capture_hidden=True)
        pos = np.arange(13)
        cache = KVCache(tiny_config)
        cache.reserve(64)
        workspace = tiny_model.restore_workspace(pos, 13)
        for layer in range(tiny_config.n_layers):
            k_view, v_view = cache.install_view(layer, 13)
            tiny_model.project_kv_chunk(
                layer, result.hidden_states[layer], 0, k_view, v_view, workspace
            )
        assert cache.capacity == 64  # projected into the reserved buffer
        for layer in range(tiny_config.n_layers):
            k, v = tiny_model.project_kv(layer, result.hidden_states[layer], pos)
            got_k, got_v = cache.get(layer)
            assert np.array_equal(got_k, k)
            assert np.array_equal(got_v, v)

    def test_restore_accepts_capture_and_stacked(self, tiny_model, tiny_config):
        p = prompt(tiny_config, 8, seed=27)
        _, cache, captured = tiny_model.generate(p, 4, capture_hidden=True)
        stacked = np.stack(captured)
        from_list = tiny_model.restore_cache_from_hidden(captured)
        from_array = tiny_model.restore_cache_from_hidden(stacked)
        # List, stacked-array, and naive inputs all take the same math.
        assert from_list.equals(from_array, atol=0.0)
        assert from_list.equals(
            naive_restore_cache_from_hidden(tiny_model, captured), atol=0.0
        )
        # Decode-step KV was produced by M=1 GEMVs, restoration by one
        # M=n GEMM — identical up to BLAS kernel rounding (the seed's
        # guarantee for post-generation restores).
        assert from_list.equals(cache, atol=1e-5)

    def test_layer_count_checked(self, tiny_model):
        with pytest.raises(ConfigError):
            tiny_model.restore_cache_from_hidden([np.zeros((3, 64), dtype=np.float32)])


class TestSaveSealAppendRestore:
    """Multi-round save -> seal -> append -> restore with partial tail chunks."""

    @pytest.fixture
    def engine(self, tiny_model, storage_manager):
        return HCacheEngine(tiny_model, storage_manager)

    def test_drop_context_with_pure_recompute_scheme(self, tiny_model, tiny_config, storage_manager):
        """A pure-recompute partition stores nothing; dropping the context
        must not trip over the allocator having no runs."""
        from repro.core.partition import PartitionScheme

        engine = HCacheEngine(
            tiny_model, storage_manager,
            scheme=PartitionScheme.pure_recompute(tiny_config.n_layers),
        )
        engine.register_context("re")
        tokens = prompt(tiny_config, 12, seed=33)
        cache = KVCache(tiny_config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        engine.save_states("re", result.hidden_states, tokens, kv_cache=cache)
        engine.seal("re")
        assert engine.restore("re").equals(cache, atol=0.0)
        engine.drop_context("re")
        assert not engine.has_context("re")

    def test_partial_tail_roundtrip_bit_exact(self, tiny_model, tiny_config, engine):
        engine.register_context("chat")
        cache = KVCache(tiny_config)
        all_tokens = prompt(tiny_config, 30 + 50 + 7, seed=28)
        # Round sizes straddle the 64-token chunk boundary so the tail
        # chunk is sealed partially filled, grown, and resealed.
        start = 0
        for round_len in (30, 50, 7):
            block = all_tokens[start : start + round_len]
            result = tiny_model.forward(block, cache, capture_hidden=True)
            engine.save_states("chat", result.hidden_states, block)
            engine.seal("chat")
            start += round_len
        restored = engine.restore("chat")
        assert restored.equals(cache, atol=0.0)

    def test_restore_with_reserve_sizes_cache_for_round(self, tiny_model, tiny_config, engine):
        engine.register_context("r")
        cache = KVCache(tiny_config)
        block = prompt(tiny_config, 20, seed=30)
        result = tiny_model.forward(block, cache, capture_hidden=True)
        engine.save_states("r", result.hidden_states, block)
        engine.seal("r")
        restored = engine.restore("r", reserve_tokens=100)
        assert restored.capacity >= 100  # no post-restore growth copy needed
        assert restored.equals(cache, atol=0.0)

    def test_single_token_appends_then_restore(self, tiny_model, tiny_config, engine):
        """The decode pattern: one-row saves, sealed mid-stream."""
        engine.register_context("decode")
        cache = KVCache(tiny_config)
        tokens = prompt(tiny_config, 70, seed=29)
        for i, token in enumerate(tokens):
            result = tiny_model.forward(tokens[i : i + 1], cache, capture_hidden=True)
            engine.save_states("decode", result.hidden_states, tokens[i : i + 1])
            if i in (3, 63, 64):
                engine.seal("decode")
        restored = engine.restore("decode")
        # Decode-step KV came from M=1 GEMVs; the batched restore runs one
        # M=70 GEMM — the seed's guarantee for post-decode restores is
        # tolerance-level, and the batched path must match the naive
        # restore bit-for-bit on the same stored states.
        assert restored.equals(cache, atol=1e-5)
        # Layer 0 is token-sourced (never on a device): its rows are the
        # embeddings of the journaled tokens.
        assert engine.storage.tokens_stored("decode", 0) == 0
        stored = [tiny_model.embed(np.array(engine.token_log("decode")))] + [
            engine.storage.load_layer("decode", layer)
            for layer in range(1, tiny_config.n_layers)
        ]
        assert restored.equals(
            naive_restore_cache_from_hidden(tiny_model, stored), atol=0.0
        )
