"""Fused variable-length forward vs the serial per-session path.

``forward_fused`` packs prefill chunks and decode tokens of many
sessions into one model call; it must stay inside the
``BATCHED_DECODE_ATOL`` band of running each segment through a serial
``forward`` (and produce identical greedy tokens), because the serving
front end substitutes it for a serial per-session prefill loop.

Every equivalence test runs on ``tiny-llama`` and on two bench-mid-width
configs (SwiGLU and GELU) whose packed products are summed over row
slabs of the weight (``tensor_ops.slab_matmul``).  A call split into row
parts (``transformer.part_count``, forced here) must give the one-part
call's bits exactly.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import transformer
from repro.models.attention import QUERY_TILE
from repro.models.config import model_preset
from repro.models.kv_cache import KVCache
from repro.models.tensor_ops import M_MAX
from repro.models.transformer import (
    BATCHED_DECODE_ATOL,
    PART_ROWS,
    RestoreWorkspace,
    Transformer,
)
from repro.runtime.progress import RestoreProgress

SRC = str(Path(transformer.__file__).resolve().parents[2])


WIDE = dict(
    n_layers=2, hidden_size=512, n_heads=8, n_kv_heads=8, ffn_hidden_size=1408, vocab_size=4096
)
CONFIGS = {
    "tiny-llama": model_preset("tiny-llama"),
    "wide-llama": replace(model_preset("tiny-llama"), name="wide-llama", **WIDE),
    "wide-opt": replace(model_preset("tiny-opt"), name="wide-opt", **WIDE),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def model(request):
    return Transformer.from_seed(CONFIGS[request.param], seed=7)


def _prompts(config, sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, size=size) for size in sizes]


def _slabs_expected(config):
    """A multi-segment call takes row slabs on the wide configs only."""
    return config.hidden_size >= 512


class TestEquivalence:
    def test_packed_prefill_matches_serial_forward(self, model, slab_spy):
        config = model.config
        segments = _prompts(config, [9, 1, 5, 13], seed=41)
        serial_caches = [KVCache(config) for _ in segments]
        expected_logits = []
        for seg, cache in zip(segments, serial_caches):
            result = model.forward(seg, cache)
            expected_logits.append(result.logits[-1])
        assert slab_spy.slabs == []  # a serial forward: plain @
        fused_caches = [KVCache(config) for _ in segments]
        logits = model.forward_fused(segments, fused_caches).logits
        assert logits.shape == (len(segments), config.vocab_size)
        for s in range(len(segments)):
            np.testing.assert_allclose(
                logits[s], expected_logits[s], atol=BATCHED_DECODE_ATOL
            )
            assert int(np.argmax(logits[s])) == int(np.argmax(expected_logits[s]))
            assert fused_caches[s].equals(
                serial_caches[s], atol=BATCHED_DECODE_ATOL
            )
        assert bool(slab_spy.slabs) == _slabs_expected(config)

    def test_mixed_prefill_and_decode_segments(self, model, slab_spy):
        """Chunked prefill folded into the decode batch — one call."""
        config = model.config
        history = _prompts(config, [6, 4], seed=42)
        serial_caches = [KVCache(config) for _ in range(3)]
        fused_caches = [KVCache(config) for _ in range(3)]
        for caches in (serial_caches, fused_caches):
            for i, h in enumerate(history):
                model.forward(h, caches[i])
        # Segments: two single-token decodes continuing history + one
        # fresh prefill chunk.
        segments = [np.array([3]), np.array([5]), _prompts(config, [7], 43)[0]]
        expected = [
            model.forward(seg, cache).logits[-1]
            for seg, cache in zip(segments, serial_caches)
        ]
        assert slab_spy.slabs == []  # the serial reference never takes slabs
        logits = model.forward_fused(segments, fused_caches).logits
        for s in range(3):
            np.testing.assert_allclose(logits[s], expected[s], atol=BATCHED_DECODE_ATOL)
            assert int(np.argmax(logits[s])) == int(np.argmax(expected[s]))
            assert fused_caches[s].equals(serial_caches[s], atol=BATCHED_DECODE_ATOL)
        # 9 packed rows, then the final layer's 3 last rows: all slabbed.
        assert bool(slab_spy.slabs) == _slabs_expected(config)

    def test_only_the_packed_call_takes_slabs_qkv_included(self, model, slab_spy):
        """The serial forward, ``project_kv`` and ``project_kv_chunk`` keep
        plain ``matmul`` — so restores stay bit-exact — while the packed
        call sums every product over slabs, Q, K and V among them."""
        config = model.config
        prompts = _prompts(config, [6, 4], seed=49)
        caches = [KVCache(config) for _ in prompts]
        for prompt, cache in zip(prompts, caches):
            hidden = model.forward(prompt, cache, capture_hidden=True).hidden_states
            positions = np.arange(prompt.size)
            workspace, restored = RestoreWorkspace(config, positions, prompt.size), KVCache(config)
            for layer in range(config.n_layers):
                k, v = model.project_kv(layer, hidden[layer], positions)
                assert np.array_equal(k, cache.get(layer)[0])
                assert np.array_equal(v, cache.get(layer)[1])
                # One project_kv_chunk granule per layer.
                k_view, v_view = restored.install_view(layer, prompt.size)
                model.project_kv_chunk(layer, hidden[layer], 0, k_view, v_view, workspace)
            assert restored.equals(cache, atol=0.0)
        assert slab_spy.slabs == []
        model.forward_fused([np.array([3]), np.array([5])], caches)
        if not _slabs_expected(config):
            assert slab_spy.slabs == []
            return
        weights = [model.weights.lm_head] + [
            weight
            for lw in model.weights.layers
            for weight in (lw.wq, lw.wk, lw.wv, lw.wo, lw.w_gate, lw.w_up, lw.w_down)
            if weight is not None
        ]
        for weight in weights:
            assert any(np.shares_memory(slab, weight) for slab in slab_spy.slabs)

    def test_captured_hidden_states_match_serial_capture(self, model):
        """The HCache saving path sees identical per-segment hidden states:
        the packed call's own per-layer inputs, segments in order."""
        config = model.config
        segments = _prompts(config, [5, 3], seed=44)
        serial = []
        for seg in segments:
            cache = KVCache(config)
            result = model.forward(seg, cache, capture_hidden=True)
            serial.append(result.hidden_states)
        result = model.forward_fused(segments, [KVCache(config) for _ in segments])
        assert len(result.hidden_states) == config.n_layers
        bounds = np.cumsum([0] + [seg.size for seg in segments])
        for s in range(len(segments)):
            rows = slice(bounds[s], bounds[s + 1])
            for layer in range(config.n_layers):
                np.testing.assert_allclose(
                    result.hidden_states[layer][rows], serial[s][layer], atol=BATCHED_DECODE_ATOL
                )

    @pytest.mark.parametrize("chunks", [(256,), (255, 1), (128, 128)])
    def test_chunked_prompt_matches_one_serial_forward(self, model, chunks):
        """Attention over a block is a BLAS stage: another chunking of the
        same prompt agrees within the band, not bit for bit.  The final
        layer attends only each chunk's last row, yet its K/V rows are
        installed for *every* position."""
        config = model.config
        (prompt,) = _prompts(config, [sum(chunks)], seed=45)
        serial_cache = KVCache(config)
        expected = model.forward(prompt, serial_cache).logits[-1]
        fused_cache = KVCache(config)
        start = 0
        for size in chunks:
            logits = model.forward_fused(
                [prompt[start : start + size]], [fused_cache]
            ).logits
            start += size
        np.testing.assert_allclose(logits[0], expected, atol=BATCHED_DECODE_ATOL, rtol=0)
        assert int(np.argmax(logits[0])) == int(np.argmax(expected))
        assert fused_cache.layer_len(config.n_layers - 1) == sum(chunks)
        for layer in range(config.n_layers):
            for got, want in zip(fused_cache.get(layer), serial_cache.get(layer)):
                np.testing.assert_allclose(
                    got, want, atol=BATCHED_DECODE_ATOL, rtol=0, err_msg=f"layer {layer}"
                )


class TestPackedHiddenStates:
    """What the save path slices without copying: the call's own inputs."""

    def test_one_packed_array_per_layer(self, model):
        config = model.config
        segments = _prompts(config, [4, 1, 6], seed=50)
        result = model.forward_fused(segments, [KVCache(config) for _ in segments])
        assert len(result.hidden_states) == config.n_layers
        for layer_input in result.hidden_states:
            assert layer_input.shape == (11, config.hidden_size)
            assert layer_input.dtype == np.float32
        # Every layer's input is its own array: a slice of one never
        # aliases another layer's rows.
        for a, b in zip(result.hidden_states, result.hidden_states[1:]):
            assert not np.shares_memory(a, b)

    def test_layer_zero_input_is_the_packed_embedding(self, model):
        """Layer 0's saved rows are the embedding of the call's tokens,
        segments in order — bit for bit, before any slabbed product."""
        config = model.config
        segments = _prompts(config, [3, 7], seed=51)
        result = model.forward_fused(segments, [KVCache(config) for _ in segments])
        assert np.array_equal(
            result.hidden_states[0], model.embed(np.concatenate(segments))
        )

    def test_returned_inputs_survive_the_next_call(self, model):
        """The save path keeps views of these arrays, so no later call on
        the same caches may write into them."""
        config = model.config
        caches = [KVCache(config) for _ in range(2)]
        result = model.forward_fused(_prompts(config, [5, 2], seed=52), caches)
        kept = [layer_input.copy() for layer_input in result.hidden_states]
        model.forward_fused([np.array([3]), np.array([4])], caches)
        model.decode_batch(np.array([1, 2]), caches)
        for layer_input, copy in zip(result.hidden_states, kept):
            assert np.array_equal(layer_input, copy)

    def test_saved_rows_project_to_the_cache_the_call_wrote(self, model):
        """A restore projects K/V from the saved rows; on a mixed call
        (decode token after a history, fresh chunk) that reproduces the
        K/V the packed call appended, within the batched band."""
        config = model.config
        (history,) = _prompts(config, [6], seed=53)
        caches = [KVCache(config), KVCache(config)]
        model.forward(history, caches[0])
        segments = [np.array([9]), _prompts(config, [5], seed=54)[0]]
        result = model.forward_fused(segments, caches)
        starts = [history.size, 0]
        bounds = np.cumsum([0] + [seg.size for seg in segments])
        for s, cache in enumerate(caches):
            rows = slice(bounds[s], bounds[s + 1])
            positions = np.arange(starts[s], starts[s] + segments[s].size)
            for layer in range(config.n_layers):
                k, v = model.project_kv(layer, result.hidden_states[layer][rows], positions)
                keys, values = cache.get(layer)
                np.testing.assert_allclose(
                    k, keys[starts[s] :], atol=BATCHED_DECODE_ATOL, rtol=0
                )
                np.testing.assert_allclose(
                    v, values[starts[s] :], atol=BATCHED_DECODE_ATOL, rtol=0
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

        def dies_at_layer_5(layer, hidden, positions, *product):
            if layer == 5:
                raise MemoryError("injected at layer 5")
            return real(layer, hidden, positions, *product)

        model.compute_qkv = dies_at_layer_5
        try:
            with pytest.raises(MemoryError, match="layer 5"):
                model.forward_fused(segments, caches)
        finally:
            del model.compute_qkv
        for cache, history, rows in zip(caches, histories, before):
            assert all(0 <= cache.layer_len(i) <= cache.capacity for i in range(config.n_layers))
            assert len(cache) == history.size  # no "layers disagree" StateError
            for layer, (keys, values) in enumerate(rows):
                assert np.array_equal(cache.get(layer)[0], keys)
                assert np.array_equal(cache.get(layer)[1], values)
        # The next call serves the same sessions exactly as if nothing happened.
        expected = model.forward_fused(segments, control).logits
        logits = model.forward_fused(segments, caches).logits
        assert np.array_equal(logits, expected)
        for cache, twin in zip(caches, control):
            assert cache.equals(twin, atol=0.0)


PART_CONFIGS = {
    "wide-llama": replace(CONFIGS["wide-llama"], max_context=1024),
    "wide-opt": replace(CONFIGS["wide-opt"], max_context=1024),  # layernorm, no RoPE
    "wide-gqa": replace(
        CONFIGS["wide-llama"], name="wide-gqa", n_kv_heads=2, max_context=1024
    ),
}
TINY_4 = replace(model_preset("tiny-llama"), name="tiny-4", n_layers=4, max_context=1024)
PART_CUTS = transformer._part_cuts

#: Packings and the parts a forced count of 2 / 3 gives them: a cut only
#: on a query tile of the segment it cuts, every part over M_MAX rows.
PACKINGS = [
    ((256,), {2: 2, 3: 3}),
    ((256, 1), {2: 2, 3: 3}),
    ((1, 256), {2: 2, 3: 3}),
    ((200, 200), {2: 2, 3: 3}),
    ((100, 300), {2: 2, 3: 3}),
    ((512,), {2: 2, 3: 3}),
    ((300, 1, 1, 1), {2: 2, 3: 3}),
    ((150,), {2: 2, 3: 2}),  # a third part would hold at most M_MAX rows
    ((110,), {2: 1, 3: 1}),  # no legal cut at all
]


#: Every packing runs on wide-llama; the layernorm / no-RoPE and GQA
#: configs run a cut inside a segment, at a segment boundary and a fallback.
SPLIT_CASES = [("wide-llama", sizes, expected) for sizes, expected in PACKINGS] + [
    (name, sizes, expected)
    for name in ("wide-opt", "wide-gqa")
    for sizes, expected in PACKINGS
    if sizes in ((256, 1), (200, 200), (150,))
]


@pytest.fixture(scope="module")
def part_models():
    return {name: Transformer.from_seed(config, seed=7) for name, config in PART_CONFIGS.items()}


def _split_call(model, sizes, parts, monkeypatch, history=0):
    """``forward_fused`` over fresh segments with ``parts`` forced; returns
    the result, the caches and the row cuts the call ran."""
    config = model.config
    monkeypatch.setattr(transformer, "part_count", lambda rows: parts)
    cuts = []
    monkeypatch.setattr(
        transformer, "_part_cuts", lambda bounds, n: cuts.append(PART_CUTS(bounds, n)) or cuts[-1]
    )
    caches = [KVCache(config) for _ in sizes]
    if history:
        for cache, prompt in zip(caches, _prompts(config, [history] * len(sizes), seed=60)):
            model.forward(prompt, cache)
    result = model.forward_fused(_prompts(config, sizes, seed=61), caches)
    return result, caches, cuts[-1]


def _assert_same_bits(split, whole):
    (result, caches, _), (expected, twins, _) = split, whole
    assert np.array_equal(result.logits, expected.logits)
    assert len(result.hidden_states) == len(expected.hidden_states)
    for got, want in zip(result.hidden_states, expected.hidden_states):
        assert np.array_equal(got, want)
    for cache, twin in zip(caches, twins):
        assert cache.equals(twin, atol=0.0)


class TestParts:
    """One packed call over row parts on the helper pool: same bits as one part."""

    @pytest.mark.parametrize(
        "name, sizes, expected",
        SPLIT_CASES,
        ids=[f"{name}-{'+'.join(map(str, sizes))}" for name, sizes, _ in SPLIT_CASES],
    )
    def test_a_split_call_is_bit_identical_to_one_part(
        self, part_models, name, sizes, expected, monkeypatch
    ):
        model = part_models[name]
        whole = _split_call(model, sizes, 1, monkeypatch)
        for parts in (2, 3):
            split = _split_call(model, sizes, parts, monkeypatch)
            assert len(split[2]) - 1 == expected[parts]
            _assert_same_bits(split, whole)

    @pytest.mark.parametrize("name", sorted(PART_CONFIGS))
    def test_caches_continuing_a_history(self, part_models, name, monkeypatch):
        model = part_models[name]
        whole = _split_call(model, (200, 1, 150), 1, monkeypatch, history=37)
        for parts in (2, 3):
            split = _split_call(model, (200, 1, 150), parts, monkeypatch, history=37)
            assert len(split[2]) - 1 == parts
            _assert_same_bits(split, whole)

    def test_cuts_fall_on_query_tiles_and_leave_no_small_part(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            sizes = rng.integers(1, 300, size=rng.integers(1, 6))
            bounds = [0, *map(int, np.cumsum(sizes))]
            for parts in (2, 3, 4):
                cuts = transformer._part_cuts(bounds, parts)
                assert cuts[0] == 0 and cuts[-1] == bounds[-1]
                assert 1 <= len(cuts) - 1 <= parts
                if len(cuts) > 2:
                    assert all(b - a > M_MAX for a, b in zip(cuts, cuts[1:]))
                for cut in cuts[1:-1]:
                    first = bounds[bisect_right(bounds, cut) - 1]
                    assert (cut - first) % QUERY_TILE == 0

    @pytest.mark.parametrize("failing_part", [0, 1])
    def test_a_failure_in_any_part_rolls_every_cache_back(self, failing_part, monkeypatch):
        """Part 0 runs on the caller, part 1 on the pool; either failing at
        layer 1 stops the other by its next hand-over, leaves every cache
        at its start and re-raises, and the pool serves the next call."""
        model = Transformer.from_seed(TINY_4, seed=7)
        monkeypatch.setattr(transformer, "part_count", lambda rows: 2)
        histories = _prompts(TINY_4, [5, 9], seed=63)
        segments = [np.array([3]), _prompts(TINY_4, [256], seed=64)[0]]

        def prefilled():
            caches = [KVCache(TINY_4) for _ in histories]
            for cache, history in zip(caches, histories):
                model.forward(history, cache)
            return caches

        control, caches = prefilled(), prefilled()
        # Rows [0, 129) and [129, 257): part 1 starts at segment 1's row 128.
        first_position = {0: 5, 1: 9 + 128}
        reached = {0: 0, 1: 0}
        real = model.compute_qkv

        def dies_at_layer_1(layer, hidden, positions, *product):
            part = 0 if positions[0] == first_position[0] else 1
            reached[part] = max(reached[part], layer)
            if layer == 1 and part == failing_part:
                raise MemoryError(f"injected in part {part}")
            return real(layer, hidden, positions, *product)

        model.compute_qkv = dies_at_layer_1
        try:
            with pytest.raises(MemoryError, match=f"part {failing_part}"):
                model.forward_fused(segments, caches)
        finally:
            del model.compute_qkv
        if failing_part == 0:
            # Part 1 waits for part 0's layer-1 rows, which never come.
            assert reached[1] <= 1
        for cache, twin, history in zip(caches, control, histories):
            assert all(0 <= cache.layer_len(i) <= cache.capacity for i in range(TINY_4.n_layers))
            assert len(cache) == history.size
            assert cache.equals(twin, atol=0.0)
        expected = model.forward_fused(segments, control)
        result = model.forward_fused(segments, caches)
        _assert_same_bits((result, caches, None), (expected, control, None))

    def test_a_split_call_waits_per_layer_on_a_landing_cache(self, monkeypatch):
        """The early-release case: a session whose restore still streams.
        The part holding its first row waits once per layer; the later part
        attends only after that part's hand-over.  Every row read is the
        restored history's."""
        model = Transformer.from_seed(TINY_4, seed=7)
        (history,) = _prompts(TINY_4, [40], seed=65)
        (prompt,) = _prompts(TINY_4, [256], seed=66)
        saved = KVCache(TINY_4)
        model.forward(history, saved)
        control = copy.deepcopy(saved)
        monkeypatch.setattr(transformer, "part_count", lambda rows: 1)
        expected = model.forward_fused([prompt], [control])

        restoring = KVCache(TINY_4)
        restoring.reserve(history.size + prompt.size)
        progress = RestoreProgress("landing", TINY_4.n_layers)
        handle = restoring.landing_handle(history.size, progress)
        waits = []
        real_wait = progress.wait_layer

        def wait_layer(layer):
            waits.append((layer, threading.current_thread().name))
            real_wait(layer)

        progress.wait_layer = wait_layer

        def land():
            for layer in range(TINY_4.n_layers):
                time.sleep(0.005)
                keys, values = restoring.install_view(layer, history.size)
                keys[...], values[...] = saved.get(layer)
                progress.layer_landed(layer)

        lander = threading.Thread(target=land)
        monkeypatch.setattr(transformer, "part_count", lambda rows: 2)
        lander.start()
        try:
            result = model.forward_fused([prompt], [handle])
        finally:
            lander.join(timeout=60)
        assert not lander.is_alive()
        _assert_same_bits((result, [handle], None), (expected, [control], None))
        assert sorted(layer for layer, _ in waits) == list(range(TINY_4.n_layers))
        assert {thread for _, thread in waits} == {threading.current_thread().name}

    def test_more_parts_than_cores_under_a_short_switch_interval(self, monkeypatch):
        """Four parts on four helper threads, switching every microsecond:
        a lost or early hand-over would change the bits."""
        model = Transformer.from_seed(TINY_4, seed=7)
        sizes = (300, 1, 211)
        expected = _split_call(model, sizes, 1, monkeypatch)
        pool = ThreadPoolExecutor(max_workers=3)
        monkeypatch.setattr(transformer, "_helper_pool", lambda: pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                done = []
                caller = threading.Thread(
                    target=lambda: done.append(_split_call(model, sizes, 4, monkeypatch))
                )
                caller.start()
                caller.join(timeout=60)
                assert not caller.is_alive()
                assert len(done[0][2]) - 1 == 4
                _assert_same_bits(done[0], expected)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_a_call_below_two_parts_of_rows_never_touches_the_pool(self, monkeypatch):
        touched = []
        real = transformer._helper_pool
        monkeypatch.setattr(transformer, "_helper_pool", lambda: touched.append(1) or real())
        model = Transformer.from_seed(TINY_4, seed=7)
        for sizes in [(2 * PART_ROWS - 1,), (16, 1, 1, 1), (PART_ROWS, PART_ROWS - 1)]:
            segments = _prompts(TINY_4, sizes, seed=67)
            model.forward_fused(segments, [KVCache(TINY_4) for _ in sizes])
        caches = [KVCache(TINY_4) for _ in range(8)]
        model.decode_batch(np.arange(8), caches)
        assert touched == []
        # 2 * PART_ROWS rows take the pool exactly when the host has two CPUs.
        model.forward_fused(_prompts(TINY_4, [2 * PART_ROWS], seed=68), [KVCache(TINY_4)])
        assert bool(touched) == (transformer.part_count(2 * PART_ROWS) > 1)

    @pytest.mark.parametrize("call", ["forward_fused", "replay"])
    def test_a_part_no_helper_has_started_runs_on_the_caller(self, part_models, call, monkeypatch):
        """The pool is shared: its only worker may be busy (here: held until
        the call returns) with another call's part that waits for this
        call's rows.  Part 1 then runs on the caller, same bits."""
        model = part_models["wide-llama"]
        (tokens,) = _prompts(model.config, [256], seed=69)

        def run(parts):
            monkeypatch.setattr(transformer, "part_count", lambda rows: parts)
            if call == "replay":
                cache, boundary = model.recompute_prefix(tokens, 1)
                return cache.get(0), boundary
            caches = [KVCache(model.config)]
            return model.forward_fused([tokens], caches), caches

        expected = run(1)
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(transformer, "_helper_pool", lambda: pool)
        release = threading.Event()
        held = pool.submit(release.wait)
        done = []
        caller = threading.Thread(target=lambda: done.append(run(2)))
        try:
            caller.start()
            caller.join(timeout=60)
            finished = not caller.is_alive()
        finally:
            release.set()
            held.result(timeout=60)
            caller.join(timeout=60)
            pool.shutdown()
        assert finished and not caller.is_alive()
        if call == "replay":
            (keys, values), boundary = done[0]
            assert np.array_equal(keys, expected[0][0]) and np.array_equal(values, expected[0][1])
            assert np.array_equal(boundary, expected[1])
        else:
            _assert_same_bits((*done[0], None), (*expected, None))

    def test_parts_times_blas_threads_stay_within_the_cpus(self, monkeypatch):
        """A part's GEMMs run on BLAS's own threads: on the serving host's
        two CPUs a 256-row call splits only with BLAS pinned to one."""
        monkeypatch.setattr(transformer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(transformer, "_blas_threads", lambda: 2)
        assert transformer.part_count(2 * PART_ROWS) == 1
        monkeypatch.setattr(transformer, "_blas_threads", lambda: 1)
        assert transformer.part_count(2 * PART_ROWS) == 2
        for cpus in (1, 2, 3, 4, 8):
            for blas in (1, 2, 3, 4, 16):
                monkeypatch.setattr(transformer, "_usable_cpus", lambda: cpus)
                monkeypatch.setattr(transformer, "_blas_threads", lambda: blas)
                parts = transformer.part_count(100 * PART_ROWS)
                assert parts == max(1, cpus // blas)
                assert parts == 1 or parts * blas <= cpus

    def test_the_blas_thread_count_is_read_in_process(self, monkeypatch):
        """numpy's OpenBLAS is asked (what ``OPENBLAS_NUM_THREADS`` set at
        start-up); without it the variable is read, then one per CPU."""
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC}
            read = subprocess.run(
                [sys.executable, "-c",
                 "from repro.models import transformer; print(transformer._blas_threads())"],
                env=env, capture_output=True, text=True, check=True,
            )
            assert read.stdout.strip() == threads
        monkeypatch.setattr(transformer, "_blas_thread_getter", lambda: None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert transformer._blas_threads() == 3
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert transformer._blas_threads() == transformer._usable_cpus()


#: Three layers of bench-mid width: a replay of one or two layers has a
#: layer-two or layer-three input the serving prefill also computes.
REPLAY_CONFIGS = {name: replace(config, n_layers=3) for name, config in PART_CONFIGS.items()}
#: Slab products (2–M_MAX rows), one-call products, and two parts.
REPLAY_ROWS = (20, M_MAX, M_MAX + 1, 150, 300)


@pytest.fixture(scope="module")
def replay_models():
    return {name: Transformer.from_seed(config, seed=7) for name, config in REPLAY_CONFIGS.items()}


class TestReplay:
    """The restore's token replay is the packed kernel over a layer range."""

    @pytest.mark.parametrize("n", REPLAY_ROWS)
    @pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
    def test_a_layer_range_call_is_the_serving_prefill(self, replay_models, name, n, monkeypatch):
        model = replay_models[name]
        config = model.config
        (tokens,) = _prompts(config, [n], seed=70)
        monkeypatch.setattr(transformer, "part_count", lambda rows: 1)
        fused_cache = KVCache(config)
        fused = model.forward_fused([tokens], [fused_cache])
        serial_cache = KVCache(model.config)
        serial = model.forward(tokens, serial_cache, capture_hidden=True)
        cuts = []
        monkeypatch.setattr(
            transformer, "_part_cuts", lambda b, p: cuts.append(PART_CUTS(b, p)) or cuts[-1]
        )
        for parts in (1, 2):
            monkeypatch.setattr(transformer, "part_count", lambda rows: parts)
            for stop in range(1, config.n_layers + 1):
                cache, boundary = model.recompute_prefix(tokens, stop)
                assert len(cuts[-1]) - 1 == (parts if n > 2 * QUERY_TILE else 1)
                replayed = [cache.get(layer) for layer in range(stop)]
                fused_kv = [fused_cache.get(layer) for layer in range(stop)]
                serial_kv = [serial_cache.get(layer) for layer in range(stop)]
                pairs = (  # no call above computes every row's final-layer output
                    [(boundary, fused.hidden_states[stop], serial.hidden_states[stop])]
                    if stop < config.n_layers
                    else []
                )
                for (k, v), (fk, fv), (sk, sv) in zip(replayed, fused_kv, serial_kv):
                    pairs += [(k, fk, sk), (v, fv, sv)]
                for got, packed, reference in pairs:
                    assert np.array_equal(got, packed)
                    if n > M_MAX:
                        assert np.array_equal(got, reference)
                    else:
                        np.testing.assert_allclose(
                            got, reference, atol=BATCHED_DECODE_ATOL, rtol=0
                        )

    def test_no_layers_is_the_embedding_gather_and_no_kernel(self, replay_models, monkeypatch):
        model = replay_models["wide-llama"]
        (tokens,) = _prompts(model.config, [300], seed=71)
        calls = []
        monkeypatch.setitem(vars(model), "_forward_packed", lambda *args: calls.append(args))
        assert np.array_equal(model.replay(tokens, []), model.embed(tokens))
        assert calls == []
