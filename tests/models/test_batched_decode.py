"""Batched multi-session decode vs the serial per-session loop.

One packed kernel serves a decode step under two spellings —
``Transformer.decode_batch(tokens, caches)`` and
``Transformer.forward_fused([[t] ...], caches)``.  Both must reproduce the
serial decode path for every session of the batch — unequal lengths,
GQA, layernorm/no-rope — within the documented batched-GEMM tolerance
(:data:`repro.models.transformer.BATCHED_DECODE_ATOL`), with identical
post-step cache contents, and must agree with each other bit for bit.

The hidden-64 presets' products never span more than one row slab, so
the two ``wide-*`` configs (bench-mid width, two layers) are what puts
the slab products of a 2–``M_MAX``-session step under every check here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.models.config import ModelConfig, model_preset
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.tensor_ops import M_MAX
from repro.models.transformer import BATCHED_DECODE_ATOL, Transformer

GQA_CONFIG = ModelConfig(
    name="tiny-gqa",
    n_layers=3,
    hidden_size=48,
    n_heads=6,
    n_kv_heads=2,
    ffn_hidden_size=96,
    n_ffn_mats=3,
    vocab_size=64,
    max_context=256,
)

#: Bench-mid width and vocabulary on two layers: every product of a
#: 2-row step is summed over several row slabs.
WIDE = dict(
    n_layers=2, hidden_size=512, n_heads=8, n_kv_heads=8, ffn_hidden_size=1408, vocab_size=4096
)

CONFIGS = {
    "tiny-llama": model_preset("tiny-llama"),
    "tiny-opt": model_preset("tiny-opt"),
    "tiny-gqa": GQA_CONFIG,
    "wide-llama": replace(model_preset("tiny-llama"), name="wide-llama", **WIDE),
    "wide-opt": replace(model_preset("tiny-opt"), name="wide-opt", **WIDE),
}

_MODELS: dict[str, Transformer] = {}


def get_model(name: str) -> Transformer:
    if name not in _MODELS:
        _MODELS[name] = Transformer.from_seed(CONFIGS[name], seed=11)
    return _MODELS[name]


def prefilled_caches(model, lengths, seed, copies=1):
    """``copies`` independent-but-identical cache sets for the given lengths."""
    config = model.config
    rng = np.random.default_rng(seed)
    prompts = [rng.integers(0, config.vocab_size, size=n) for n in lengths]
    sets = [[] for _ in range(copies)]
    for prompt in prompts:
        for group in sets:
            cache = KVCache(config)
            model.forward(prompt, cache)
            group.append(cache)
    return prompts, sets


#: The two public spellings of a decode step, as ``step(model, tokens,
#: caches, captures=None) -> (B, vocab) logits``.
SPELLINGS = {
    "decode_batch": lambda model, tokens, caches, captures=None: model.decode_batch(
        np.asarray(tokens, dtype=int), caches, captures=captures
    ),
    "forward_fused": lambda model, tokens, caches, captures=None: model.forward_fused(
        [[int(t)] for t in tokens], caches, captures=captures
    ),
}

spelling = pytest.mark.parametrize("step", SPELLINGS.values(), ids=SPELLINGS.keys())


def serial_decode(model, tokens, caches, captures=None):
    """Per-session single-token forwards; logits stacked like decode_batch."""
    rows = []
    for b, cache in enumerate(caches):
        capture = captures[b] if captures is not None else None
        result = model.forward(np.array([tokens[b]]), cache, capture=capture)
        rows.append(result.logits[-1])
    return np.stack(rows)


def caches_close(a, b, atol):
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.equals(cb, atol=atol)


#: Session history lengths per batch: unequal, four and 16 sessions.
BATCHES = {
    "b4": [3, 17, 9, 1],
    "b16": [3, 17, 9, 1, 30, 12, 5, 22, 8, 2, 40, 14, 6, 27, 11, 19],
}


class TestEquivalence:
    @spelling
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_serial_loop(self, name, batch, step):
        """Batched == serial decode outputs and post-step cache contents."""
        model = get_model(name)
        config = model.config
        lengths = BATCHES[batch]
        _, (serial, batched) = prefilled_caches(model, lengths, seed=1, copies=2)
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, config.vocab_size, size=len(lengths))
        for _ in range(6):
            ref = serial_decode(model, tokens, serial)
            got = step(model, tokens, batched)
            assert got.shape == (len(lengths), config.vocab_size)
            np.testing.assert_allclose(got, ref, atol=BATCHED_DECODE_ATOL, rtol=0)
            assert np.array_equal(np.argmax(got, 1), np.argmax(ref, 1))
            tokens = np.argmax(ref, axis=1)
        caches_close(batched, serial, BATCHED_DECODE_ATOL)
        for cache, n in zip(batched, lengths):
            assert len(cache) == n + 6

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_two_spellings_bit_identical(self, name):
        """Same kernel, same shapes: no tolerance between the two names."""
        model = get_model(name)
        lengths = [5, 2, 11]
        _, (as_tokens, as_segments) = prefilled_caches(model, lengths, seed=3, copies=2)
        tokens = np.array([4, 9, 0])
        for _ in range(4):
            a = SPELLINGS["decode_batch"](model, tokens, as_tokens)
            b = SPELLINGS["forward_fused"](model, tokens, as_segments)
            assert np.array_equal(a, b)
            tokens = np.argmax(a, axis=1)
        caches_close(as_tokens, as_segments, 0.0)

    @spelling
    def test_capture_rows_match_serial_capture(self, step):
        model = get_model("tiny-llama")
        config = model.config
        lengths = [4, 8]
        _, (serial, batched) = prefilled_caches(model, lengths, seed=4, copies=2)

        def fresh_captures():
            captures = []
            for _ in lengths:
                capture = HiddenCapture(config.n_layers, config.hidden_size)
                capture.reserve(3)
                captures.append(capture)
            return captures

        serial_caps = fresh_captures()
        batched_caps = fresh_captures()
        tokens = np.array([1, 2])
        for _ in range(3):
            ref = serial_decode(model, tokens, serial, captures=serial_caps)
            step(model, tokens, batched, captures=batched_caps)
            tokens = np.argmax(ref, axis=1)
        for cs, cb in zip(serial_caps, batched_caps):
            assert len(cs) == len(cb) == 3
            for layer in range(config.n_layers):
                # Layer 0's input is the embedding (pre-GEMM): bit-equal.
                # Deeper layers differ only within the GEMM tolerance.
                np.testing.assert_allclose(
                    cb.layer_view(layer),
                    cs.layer_view(layer),
                    atol=BATCHED_DECODE_ATOL,
                    rtol=0,
                )
            assert np.array_equal(cb.layer_view(0), cs.layer_view(0))

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        name=st.sampled_from(sorted(CONFIGS)),
        lengths=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        spelled=st.sampled_from(sorted(SPELLINGS)),
    )
    def test_property_random_batches(self, name, lengths, seed, spelled):
        """Random batch sizes, unequal lengths, all config families."""
        model = get_model(name)
        config = model.config
        _, (serial, batched) = prefilled_caches(model, lengths, seed=seed, copies=2)
        rng = np.random.default_rng(seed + 1)
        tokens = rng.integers(0, config.vocab_size, size=len(lengths))
        for _ in range(2):
            ref = serial_decode(model, tokens, serial)
            got = SPELLINGS[spelled](model, tokens, batched)
            np.testing.assert_allclose(got, ref, atol=BATCHED_DECODE_ATOL, rtol=0)
            tokens = np.argmax(ref, axis=1)
        caches_close(batched, serial, BATCHED_DECODE_ATOL)


class TestSlabDecode:
    """The slab products on the serving batch sizes and either side of
    ``M_MAX``, SwiGLU and GELU."""

    @spelling
    @pytest.mark.parametrize("batch", [2, 3, 4, 8, M_MAX, M_MAX + 1])
    @pytest.mark.parametrize("name", ["wide-llama", "wide-opt"])
    def test_matches_serial_loop(self, name, batch, step, slab_spy):
        model = get_model(name)
        lengths = [2 + 3 * (b % 8) for b in range(batch)]
        _, (serial, batched) = prefilled_caches(model, lengths, seed=batch, copies=2)
        assert slab_spy.slabs == []  # serial prefills: plain @
        tokens = np.random.default_rng(batch).integers(0, 4096, size=batch)
        for _ in range(3):
            ref = serial_decode(model, tokens, serial)
            got = step(model, tokens, batched)
            np.testing.assert_allclose(got, ref, atol=BATCHED_DECODE_ATOL, rtol=0)
            assert np.array_equal(np.argmax(got, 1), np.argmax(ref, 1))
            tokens = np.argmax(ref, axis=1)
        caches_close(batched, serial, BATCHED_DECODE_ATOL)
        # B <= M_MAX sums its products over slabs; past it, one call each.
        assert bool(slab_spy.slabs) == (batch <= M_MAX)

    def test_restore_and_serial_paths_never_take_slabs(self, slab_spy):
        """K/V stay on the single GEMM a restore replays, bit for bit."""
        model = get_model("wide-llama")
        config = model.config
        prompts, (caches,) = prefilled_caches(model, [4, 3], seed=5)
        captured = [
            model.forward(prompt, KVCache(config), capture_hidden=True).hidden_states
            for prompt in prompts
        ]
        for cache, hidden in zip(caches, captured):
            positions = np.arange(len(cache))
            for layer in range(config.n_layers):
                k, v = model.project_kv(layer, hidden[layer], positions)
                assert np.array_equal(k, cache.get(layer)[0])
                assert np.array_equal(v, cache.get(layer)[1])
            assert model.restore_cache_from_hidden(hidden).equals(cache, atol=0.0)
        assert slab_spy.slabs == []
        model.decode_batch(np.array([1, 2]), caches)
        assert slab_spy.slabs


@spelling
class TestValidation:
    def test_token_cache_count_mismatch(self, step):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [2, 2], seed=0)
        with pytest.raises(ConfigError):
            step(model, [1], caches)

    def test_empty_batch_rejected(self, step):
        model = get_model("tiny-llama")
        with pytest.raises(ConfigError):
            step(model, [], [])

    def test_foreign_config_rejected(self, step):
        model = get_model("tiny-llama")
        with pytest.raises(ConfigError):
            step(model, [1], [KVCache(CONFIGS["tiny-opt"])])

    def test_duplicate_cache_rejected(self, step):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [3], seed=0)
        with pytest.raises(ConfigError):
            step(model, [1, 2], [caches[0], caches[0]])
        # fail-fast: the cache must not have been mutated
        assert len(caches[0]) == 3

    def test_capture_count_mismatch(self, step):
        model = get_model("tiny-llama")
        _, (caches,) = prefilled_caches(model, [2], seed=0)
        with pytest.raises(ConfigError):
            step(model, [1], caches, captures=[])

    def test_context_overflow_rejected(self, step):
        model = get_model("tiny-llama")
        cache = KVCache(model.config)
        rng = np.random.default_rng(0)
        model.forward(rng.integers(0, model.config.vocab_size, size=model.config.max_context), cache)
        with pytest.raises(ConfigError):
            step(model, [1], [cache])


def test_decode_batch_rejects_non_vector_tokens():
    model = get_model("tiny-llama")
    _, (caches,) = prefilled_caches(model, [2], seed=0)
    with pytest.raises(ConfigError):
        model.decode_batch(np.array([[1]]), caches)
