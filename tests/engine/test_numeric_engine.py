"""End-to-end numeric serving tests: evict/restore must not change outputs."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import ConfigError, StateError
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.storage.manager import StorageManager


@pytest.fixture
def numeric_engine(tiny_model, default_platform):
    storage = StorageManager(build_storage_array(default_platform))
    return NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))


def reference_rounds(model, prompts, n_out):
    """Uninterrupted multi-round generation."""
    cache = KVCache(model.config)
    outputs = []
    for prompt in prompts:
        result = model.forward(prompt, cache)
        tokens = []
        logits = result.logits[-1]
        for _ in range(n_out):
            token = int(np.argmax(logits))
            tokens.append(token)
            logits = model.decode_step(token, cache).logits[-1]
        outputs.append(tokens)
    return outputs


class TestSessions:
    def test_open_twice_rejected(self, numeric_engine):
        numeric_engine.open_session("s")
        with pytest.raises(StateError):
            numeric_engine.open_session("s")

    def test_unknown_session_rejected(self, numeric_engine):
        with pytest.raises(StateError):
            numeric_engine.session("ghost")

    def test_evict_twice_rejected(self, numeric_engine, tiny_config):
        numeric_engine.open_session("s")
        numeric_engine.chat_round("s", np.arange(5) % tiny_config.vocab_size, 2)
        numeric_engine.evict("s")
        with pytest.raises(StateError):
            numeric_engine.evict("s")

    def test_close_frees_storage(self, numeric_engine, tiny_config):
        numeric_engine.open_session("s")
        numeric_engine.chat_round("s", np.arange(5) % tiny_config.vocab_size, 2)
        numeric_engine.close_session("s")
        with pytest.raises(StateError):
            numeric_engine.session("s")

    def test_gpu_resident_tracking(self, numeric_engine, tiny_config):
        numeric_engine.open_session("s")
        numeric_engine.chat_round("s", np.arange(5) % tiny_config.vocab_size, 2)
        assert numeric_engine.gpu_resident_sessions() == ("s",)
        numeric_engine.evict("s")
        assert numeric_engine.gpu_resident_sessions() == ()

    def test_empty_prompt_rejected(self, numeric_engine):
        numeric_engine.open_session("s")
        with pytest.raises(ConfigError):
            numeric_engine.chat_round("s", np.array([]), 2)

    def test_zero_output_rejected(self, numeric_engine):
        numeric_engine.open_session("s")
        with pytest.raises(ConfigError):
            numeric_engine.chat_round("s", np.array([1]), 0)


class TestEquivalence:
    def test_multi_round_with_eviction_matches_uninterrupted(
        self, tiny_model, tiny_config, numeric_engine
    ):
        """The paper's losslessness claim, end to end: a conversation with
        eviction + HCache restoration between every round generates the
        same tokens as one whose KV cache never left the GPU."""
        rng = np.random.default_rng(21)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=n) for n in (10, 6, 8, 5)]
        numeric_engine.open_session("s")
        interrupted = []
        for prompt in prompts:
            interrupted.append(numeric_engine.chat_round("s", prompt, 5))
            numeric_engine.evict("s")
        assert interrupted == reference_rounds(tiny_model, prompts, 5)

    def test_eviction_only_between_some_rounds(self, tiny_model, tiny_config, numeric_engine):
        rng = np.random.default_rng(22)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=6) for _ in range(3)]
        numeric_engine.open_session("s")
        out = [numeric_engine.chat_round("s", prompts[0], 4)]
        numeric_engine.evict("s")  # evict once
        out.append(numeric_engine.chat_round("s", prompts[1], 4))
        out.append(numeric_engine.chat_round("s", prompts[2], 4))  # stays on GPU
        assert out == reference_rounds(tiny_model, prompts, 4)

    def test_mixed_scheme_engine_equivalence(self, tiny_model, tiny_config, default_platform):
        """Same equivalence with a scheduler-style mixed partition."""
        storage = StorageManager(build_storage_array(default_platform))
        scheme = PartitionScheme.with_kv_suffix(tiny_config.n_layers, 1)
        engine = NumericServingEngine(
            tiny_model, HCacheEngine(tiny_model, storage, scheme=scheme)
        )
        rng = np.random.default_rng(23)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=7) for _ in range(3)]
        engine.open_session("s")
        out = []
        for prompt in prompts:
            out.append(engine.chat_round("s", prompt, 4))
            engine.evict("s")
        assert out == reference_rounds(tiny_model, prompts, 4)

    def test_two_concurrent_sessions_independent(self, tiny_model, tiny_config, numeric_engine):
        rng = np.random.default_rng(24)
        pa = rng.integers(0, tiny_config.vocab_size, size=9)
        pb = rng.integers(0, tiny_config.vocab_size, size=9)
        numeric_engine.open_session("a")
        numeric_engine.open_session("b")
        out_a = numeric_engine.chat_round("a", pa, 4)
        out_b = numeric_engine.chat_round("b", pb, 4)
        numeric_engine.evict("a")
        numeric_engine.evict("b")
        out_a2 = numeric_engine.chat_round("a", pb, 4)
        ref = reference_rounds(tiny_model, [pa, pb], 4)
        assert [out_a] == [ref[0]]
        assert out_b == reference_rounds(tiny_model, [pb], 4)[0]
        assert out_a2 == reference_rounds(tiny_model, [pa, pb], 4)[1]

    def test_wrong_transformer_rejected(self, tiny_config, default_platform):
        a = Transformer.from_seed(tiny_config, seed=1)
        b = Transformer.from_seed(tiny_config, seed=2)
        storage = StorageManager(build_storage_array(default_platform))
        with pytest.raises(ConfigError):
            NumericServingEngine(a, HCacheEngine(b, storage))


class TestCloseDuringRestore:
    def test_close_waits_out_an_unreported_restore(
        self, tiny_model, tiny_config, default_platform
    ):
        """Closing a session whose background restore still reads its
        storage waits for that restore before freeing the storage: the
        close leaves nothing behind and no later call raises the
        restore's read of a freed chunk."""
        storage = StorageManager(build_storage_array(default_platform), tokens_per_chunk=8)
        with RestoreExecutor(1) as executor:
            engine = NumericServingEngine(
                tiny_model, HCacheEngine(tiny_model, storage), executor=executor
            )
            engine.open_session("a")
            prompt = np.random.default_rng(3).integers(0, tiny_config.vocab_size, size=40)
            engine.chat_round("a", prompt, 4)
            engine.evict("a")
            gate = threading.Event()
            real_read = storage.read_granule_into

            def held_read(context_id, spec, out):
                assert gate.wait(20.0), "the held reads were never released"
                real_read(context_id, spec, out)

            storage.read_granule_into = held_read
            engine.start_restores({"a": 300}, background=True)
            # Reads resume 50 ms from now: a close that does not wait for
            # the restore has freed the storage by then.
            release = threading.Timer(0.05, gate.set)
            release.start()
            engine.close_session("a")
            release.join()
            assert not engine.has_session("a")
            assert not storage.has_context("a")
            assert storage.allocated_bytes == 0
            for _ in range(tiny_config.n_layers + 1):
                engine.wait_for_restores()
            assert engine.finished_restores() == []

    def test_close_discards_a_restore_that_fails(
        self, tiny_model, tiny_config, default_platform
    ):
        """A background restore whose read fails while its session is
        being closed: the close waits it out, drops its failure with it,
        and no later call reports either."""
        storage = StorageManager(build_storage_array(default_platform), tokens_per_chunk=8)
        with RestoreExecutor(1) as executor:
            engine = NumericServingEngine(
                tiny_model, HCacheEngine(tiny_model, storage), executor=executor
            )
            engine.open_session("a")
            prompt = np.random.default_rng(4).integers(0, tiny_config.vocab_size, size=40)
            engine.chat_round("a", prompt, 4)
            engine.evict("a")
            gate = threading.Event()
            reads = []

            def failing_read(context_id, spec, out):
                reads.append(context_id)
                assert gate.wait(20.0), "the held read was never released"
                raise OSError("injected device failure")

            storage.read_granule_into = failing_read
            engine.start_restores({"a": 300}, background=True)
            release = threading.Timer(0.05, gate.set)
            release.start()
            engine.close_session("a")
            release.join()
            assert reads  # the restore did reach the device
            assert not engine.has_session("a")
            assert not storage.has_context("a")
            assert storage.allocated_bytes == 0
            assert engine.finished_restores() == []
