"""Fused variable-length forward vs the serial per-session path.

``forward_fused`` packs prefill chunks and decode tokens of many
sessions into one model call; it must stay inside the
``BATCHED_DECODE_ATOL`` band of running each segment through a serial
``forward`` (and produce identical greedy tokens), because the serving
front end substitutes it for a serial per-session prefill loop.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.config import model_preset
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.transformer import BATCHED_DECODE_ATOL, Transformer


def _prompts(config, sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, size=size) for size in sizes]


class TestEquivalence:
    def test_packed_prefill_matches_serial_forward(self, tiny_model, tiny_config):
        segments = _prompts(tiny_config, [9, 1, 5, 13], seed=41)
        serial_caches = [KVCache(tiny_config) for _ in segments]
        expected_logits = []
        for seg, cache in zip(segments, serial_caches):
            result = tiny_model.forward(seg, cache)
            expected_logits.append(result.logits[-1])
        fused_caches = [KVCache(tiny_config) for _ in segments]
        logits = tiny_model.forward_fused(segments, fused_caches)
        assert logits.shape == (len(segments), tiny_config.vocab_size)
        for s in range(len(segments)):
            np.testing.assert_allclose(
                logits[s], expected_logits[s], atol=BATCHED_DECODE_ATOL
            )
            assert int(np.argmax(logits[s])) == int(np.argmax(expected_logits[s]))
            assert fused_caches[s].equals(
                serial_caches[s], atol=BATCHED_DECODE_ATOL
            )

    def test_mixed_prefill_and_decode_segments(self, tiny_model, tiny_config):
        """Chunked prefill folded into the decode batch — one call."""
        history = _prompts(tiny_config, [6, 4], seed=42)
        serial_caches = [KVCache(tiny_config) for _ in range(3)]
        fused_caches = [KVCache(tiny_config) for _ in range(3)]
        for caches in (serial_caches, fused_caches):
            for i, h in enumerate(history):
                tiny_model.forward(h, caches[i])
        # Segments: two single-token decodes continuing history + one
        # fresh prefill chunk.
        segments = [np.array([3]), np.array([5]), _prompts(tiny_config, [7], 43)[0]]
        expected = [
            tiny_model.forward(seg, cache).logits[-1]
            for seg, cache in zip(segments, serial_caches)
        ]
        logits = tiny_model.forward_fused(segments, fused_caches)
        for s in range(3):
            np.testing.assert_allclose(logits[s], expected[s], atol=BATCHED_DECODE_ATOL)
            assert fused_caches[s].equals(serial_caches[s], atol=BATCHED_DECODE_ATOL)

    def test_captured_hidden_states_match_serial_capture(
        self, tiny_model, tiny_config
    ):
        """The HCache saving path sees identical per-segment hidden states."""
        segments = _prompts(tiny_config, [5, 3], seed=44)
        serial = []
        for seg in segments:
            cache = KVCache(tiny_config)
            result = tiny_model.forward(seg, cache, capture_hidden=True)
            serial.append(result.hidden_states)
        captures = [
            HiddenCapture(tiny_config.n_layers, tiny_config.hidden_size)
            for _ in segments
        ]
        tiny_model.forward_fused(
            segments, [KVCache(tiny_config) for _ in segments], captures=captures
        )
        for s, capture in enumerate(captures):
            got = capture.block_views(0, segments[s].size)
            for layer in range(tiny_config.n_layers):
                np.testing.assert_allclose(
                    got[layer], serial[s][layer], atol=BATCHED_DECODE_ATOL
                )

    @pytest.mark.parametrize("chunks", [(256,), (255, 1), (128, 128)])
    def test_chunked_prompt_matches_one_serial_forward(
        self, tiny_model, tiny_config, chunks
    ):
        """Attention over a block is a BLAS stage: another chunking of the
        same prompt agrees within the band, not bit for bit.  The final
        layer attends only each chunk's last row, yet its K/V rows are
        installed for *every* position."""
        (prompt,) = _prompts(tiny_config, [sum(chunks)], seed=45)
        serial_cache = KVCache(tiny_config)
        expected = tiny_model.forward(prompt, serial_cache).logits[-1]
        fused_cache = KVCache(tiny_config)
        start = 0
        for size in chunks:
            logits = tiny_model.forward_fused(
                [prompt[start : start + size]], [fused_cache]
            )
            start += size
        np.testing.assert_allclose(logits[0], expected, atol=BATCHED_DECODE_ATOL, rtol=0)
        assert int(np.argmax(logits[0])) == int(np.argmax(expected))
        assert fused_cache.layer_len(tiny_config.n_layers - 1) == sum(chunks)
        for layer in range(tiny_config.n_layers):
            for got, want in zip(fused_cache.get(layer), serial_cache.get(layer)):
                np.testing.assert_allclose(
                    got, want, atol=BATCHED_DECODE_ATOL, rtol=0, err_msg=f"layer {layer}"
                )


class TestValidation:
    def test_rejects_bad_inputs(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        other = KVCache(tiny_config)
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([], [])
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([np.array([1])], [cache, other])
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([np.array([])], [cache])
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([np.array([[1]])], [cache])
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([np.array([1]), np.array([2])], [cache, cache])
        with pytest.raises(ConfigError):
            tiny_model.forward_fused(
                [np.array([1]), np.array([2])], [cache, other], captures=[None]
            )

    def test_rejects_context_overflow(self, tiny_model, tiny_config):
        cache = KVCache(tiny_config)
        too_long = np.zeros(tiny_config.max_context + 1, dtype=np.int64)
        with pytest.raises(ConfigError):
            tiny_model.forward_fused([too_long], [cache])


class TestRollback:
    """A call that dies at layer k leaves no cache appended for layers < k."""

    def test_a_failure_mid_stack_leaves_every_cache_of_the_batch_as_it_was(self):
        config = replace(model_preset("tiny-llama"), name="tiny-6", n_layers=6)
        model = Transformer.from_seed(config, seed=7)
        histories = _prompts(config, [6, 4, 9], seed=47)
        segments = [np.array([3]), _prompts(config, [5], seed=48)[0], np.array([7])]

        def prefilled():
            caches = [KVCache(config) for _ in histories]
            for cache, history in zip(caches, histories):
                model.forward(history, cache)
            return caches

        control, caches = prefilled(), prefilled()
        before = [
            [tuple(np.array(x) for x in cache.get(layer)) for layer in range(config.n_layers)]
            for cache in caches
        ]
        real = model.compute_qkv

        def dies_at_layer_5(layer, hidden, positions):
            if layer == 5:
                raise MemoryError("injected at layer 5")
            return real(layer, hidden, positions)

        model.compute_qkv = dies_at_layer_5
        try:
            with pytest.raises(MemoryError, match="layer 5"):
                model.forward_fused(segments, caches)
        finally:
            del model.compute_qkv
        for cache, history, rows in zip(caches, histories, before):
            cache.debug_validate()
            assert len(cache) == history.size  # no "layers disagree" StateError
            for layer, (keys, values) in enumerate(rows):
                assert np.array_equal(cache.get(layer)[0], keys)
                assert np.array_equal(cache.get(layer)[1], values)
        # The next call serves the same sessions exactly as if nothing happened.
        expected = model.forward_fused(segments, control)
        logits = model.forward_fused(segments, caches)
        assert np.array_equal(logits, expected)
        for cache, twin in zip(caches, control):
            assert cache.equals(twin, atol=0.0)
