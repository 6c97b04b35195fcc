"""Tests for the numpy transformer — including the paper's core
losslessness property (§3.1): KV restored from hidden states equals the
original KV cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.reference import naive_restore_cache_from_hidden
from repro.models.transformer import Transformer


def prompt(config, n, seed=0):
    return np.random.default_rng(seed).integers(0, config.vocab_size, size=n)


class TestForward:
    def test_prefill_shapes(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        result = tiny_model.forward(prompt(tiny_config, 12), cache)
        assert result.logits.shape == (12, tiny_config.vocab_size)
        assert len(cache) == 12

    def test_capture_hidden_shapes(self, tiny_model, tiny_config):
        tokens = prompt(tiny_config, 9)
        result = tiny_model.forward(tokens, KVCache(tiny_config), capture_hidden=True)
        assert result.hidden_states is not None
        assert len(result.hidden_states) == tiny_config.n_layers
        assert all(h.shape == (9, tiny_config.hidden_size) for h in result.hidden_states)

    def test_no_capture_by_default(self, tiny_model, tiny_config):
        result = tiny_model.forward(prompt(tiny_config, 4), KVCache(tiny_config))
        assert result.hidden_states is None

    def test_decode_step_extends_cache(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        tiny_model.forward(prompt(tiny_config, 5), cache)
        tiny_model.forward(np.array([3]), cache)
        assert len(cache) == 6

    def test_chunked_prefill_matches_single_shot(self, tiny_model, tiny_config):
        """SplitFuse-style chunking must not change the computation."""
        tokens = prompt(tiny_config, 20, seed=3)
        full_cache = KVCache(tiny_config)
        full_result = tiny_model.forward(tokens, full_cache)
        chunk_cache = KVCache(tiny_config)
        logits = None
        for start in range(0, 20, 7):
            out = tiny_model.forward(tokens[start : start + 7], chunk_cache)
            logits = out.logits
        assert full_cache.equals(chunk_cache, atol=1e-5)
        assert np.allclose(full_result.logits[-1], logits[-1], atol=1e-4)

    def test_context_limit_enforced(self, tiny_config):
        model = Transformer.from_seed(tiny_config)
        too_long = prompt(tiny_config, tiny_config.max_context + 1)
        with pytest.raises(ConfigError):
            model.forward(too_long, KVCache(tiny_config))

    def test_out_of_vocab_rejected(self, tiny_model, tiny_config):
        with pytest.raises(ConfigError):
            tiny_model.forward(np.array([tiny_config.vocab_size]), KVCache(tiny_config))

    def test_deterministic_weights(self, tiny_config):
        a = Transformer.from_seed(tiny_config, seed=42)
        b = Transformer.from_seed(tiny_config, seed=42)
        tokens = prompt(tiny_config, 6)
        ra = a.forward(tokens, KVCache(tiny_config))
        rb = b.forward(tokens, KVCache(tiny_config))
        assert np.array_equal(ra.logits, rb.logits)

    def test_different_seeds_differ(self, tiny_config):
        a = Transformer.from_seed(tiny_config, seed=1)
        b = Transformer.from_seed(tiny_config, seed=2)
        tokens = prompt(tiny_config, 6)
        assert not np.allclose(
            a.forward(tokens, KVCache(tiny_config)).logits,
            b.forward(tokens, KVCache(tiny_config)).logits,
        )


class TestLosslessRestoration:
    """The heart of the paper: K = W_k . norm(H), V = W_v . norm(H)."""

    def test_prefill_restore_exact(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        result = tiny_model.forward(prompt(tiny_config, 17), cache, capture_hidden=True)
        restored = naive_restore_cache_from_hidden(tiny_model, result.hidden_states)
        assert cache.equals(restored)  # bit-exact

    def test_restore_after_generation(self, tiny_model, tiny_config):
        """Hidden states captured over a prompt and ten decode steps restore
        the whole history (decode K/V came from M=1 GEMVs: within 1e-5)."""
        cache = KVCache(tiny_config)
        capture = HiddenCapture(tiny_config.n_layers, tiny_config.hidden_size)
        logits = tiny_model.forward(prompt(tiny_config, 8), cache, capture=capture).logits
        for _ in range(10):
            token = np.array([int(np.argmax(logits[-1]))])
            logits = tiny_model.forward(token, cache, capture=capture).logits
        hidden = capture.block_views(0, len(capture))
        restored = naive_restore_cache_from_hidden(tiny_model, hidden)
        assert len(restored) == len(cache) == 18
        assert cache.equals(restored, atol=1e-5)

    def test_restore_opt_architecture(self, tiny_opt_model, tiny_opt_config):
        """LayerNorm + no-RoPE models restore exactly too."""
        cache = KVCache(tiny_opt_config)
        result = tiny_opt_model.forward(prompt(tiny_opt_config, 11), cache, capture_hidden=True)
        restored = naive_restore_cache_from_hidden(tiny_opt_model, result.hidden_states)
        assert cache.equals(restored)

    def test_project_kv_single_layer(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        result = tiny_model.forward(prompt(tiny_config, 6), cache, capture_hidden=True)
        k, v = tiny_model.project_kv(1, result.hidden_states[1], np.arange(6))
        orig_k, orig_v = cache.get(1)
        assert np.array_equal(k, orig_k)
        assert np.array_equal(v, orig_v)

    def test_rope_positions_matter(self, tiny_model, tiny_config):
        """Restoring with wrong positions corrupts keys — RoPE replay is
        mandatory (§5's custom kernel)."""
        cache = KVCache(tiny_config)
        result = tiny_model.forward(prompt(tiny_config, 6), cache, capture_hidden=True)
        k_wrong, _ = tiny_model.project_kv(0, result.hidden_states[0], np.arange(6) + 3)
        orig_k, _ = cache.get(0)
        assert not np.allclose(k_wrong, orig_k, atol=1e-3)

    def test_restore_layer_count_checked(self, tiny_model):
        with pytest.raises(ConfigError):
            naive_restore_cache_from_hidden(tiny_model, [np.zeros((3, 64))])

    def test_decode_continuation_identical(self, tiny_model, tiny_config):
        """Greedy continuation from a restored cache matches the original."""
        tokens = prompt(tiny_config, 10, seed=5)
        cache = KVCache(tiny_config)
        result = tiny_model.forward(tokens, cache, capture_hidden=True)
        restored = naive_restore_cache_from_hidden(tiny_model, result.hidden_states)
        next_tok = np.array([int(np.argmax(result.logits[-1]))])
        a = tiny_model.forward(next_tok, cache)
        b = tiny_model.forward(next_tok, restored)
        assert int(np.argmax(a.logits[-1])) == int(np.argmax(b.logits[-1]))
        assert np.allclose(a.logits, b.logits, atol=1e-5)


class TestPrefixRecompute:
    def test_prefix_kv_matches_full(self, tiny_model, tiny_config):
        tokens = prompt(tiny_config, 14, seed=6)
        full_cache = KVCache(tiny_config)
        tiny_model.forward(tokens, full_cache)
        prefix_cache, _ = tiny_model.recompute_prefix(tokens, 2)
        for layer in range(2):
            fk, fv = full_cache.get(layer)
            pk, pv = prefix_cache.get(layer)
            assert np.allclose(fk, pk, atol=1e-6)
            assert np.allclose(fv, pv, atol=1e-6)

    def test_boundary_hidden_matches_capture(self, tiny_model, tiny_config):
        tokens = prompt(tiny_config, 9, seed=7)
        result = tiny_model.forward(tokens, KVCache(tiny_config), capture_hidden=True)
        _, boundary = tiny_model.recompute_prefix(tokens, 2)
        assert np.allclose(boundary, result.hidden_states[2], atol=1e-6)

    def test_zero_prefix(self, tiny_model, tiny_config):
        cache, hidden = tiny_model.recompute_prefix(prompt(tiny_config, 5), 0)
        assert cache.layer_len(0) == 0
        assert hidden.shape == (5, tiny_config.hidden_size)

    def test_out_of_range_prefix_rejected(self, tiny_model, tiny_config):
        with pytest.raises(ConfigError):
            tiny_model.recompute_prefix(prompt(tiny_config, 5), 99)


class TestWeightsMismatch:
    def test_layer_count_mismatch_rejected(self, tiny_config):
        other = model_preset("tiny-opt")
        from repro.models.weights import init_weights

        with pytest.raises(ConfigError):
            Transformer(tiny_config, init_weights(other, 0))
