"""End-to-end numeric serving tests: evict/restore must not change outputs."""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import AdmissionError, ConfigError, StateError
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.storage.manager import StorageManager


@pytest.fixture
def numeric_engine(tiny_model, default_platform):
    storage = StorageManager(build_storage_array(default_platform))
    return NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))


class TestSessions:
    def test_open_twice_rejected(self, numeric_engine):
        numeric_engine.open_session("s")
        with pytest.raises(StateError):
            numeric_engine.open_session("s")

    def test_unknown_session_rejected(self, numeric_engine):
        with pytest.raises(StateError):
            numeric_engine.session("ghost")

    def test_evict_twice_rejected(self, numeric_engine, tiny_config, serve_round):
        numeric_engine.open_session("s")
        serve_round(numeric_engine, "s", np.arange(5) % tiny_config.vocab_size, 2)
        numeric_engine.evict("s")
        with pytest.raises(StateError):
            numeric_engine.evict("s")

    def test_close_frees_storage(self, numeric_engine, tiny_config, serve_round):
        numeric_engine.open_session("s")
        serve_round(numeric_engine, "s", np.arange(5) % tiny_config.vocab_size, 2)
        numeric_engine.close_session("s")
        with pytest.raises(StateError):
            numeric_engine.session("s")

    def test_gpu_resident_tracking(self, numeric_engine, tiny_config, serve_round):
        numeric_engine.open_session("s")
        serve_round(numeric_engine, "s", np.arange(5) % tiny_config.vocab_size, 2)
        assert numeric_engine.gpu_resident_sessions() == ("s",)
        numeric_engine.evict("s")
        assert numeric_engine.gpu_resident_sessions() == ()

    def test_empty_prompt_rejected(self, numeric_engine, serve_round):
        numeric_engine.open_session("s")
        with pytest.raises(ConfigError):
            serve_round(numeric_engine, "s", np.array([]), 2)

    def test_zero_output_rejected(self, numeric_engine, serve_round):
        numeric_engine.open_session("s")
        with pytest.raises(ConfigError):
            serve_round(numeric_engine, "s", np.array([1]), 0)


class TestRoundLimits:
    def test_a_round_past_max_context_is_refused_untouched(
        self, numeric_engine, tiny_config, serve_round
    ):
        """The whole round must fit before any of it runs: the prompt and
        the fed-back outputs, the last one included."""
        rng = np.random.default_rng(26)
        limit = tiny_config.max_context
        numeric_engine.open_session("s")
        serve_round(numeric_engine, "s", rng.integers(0, tiny_config.vocab_size, size=8), 2)
        with pytest.raises(AdmissionError):
            serve_round(
                numeric_engine, "s", rng.integers(0, tiny_config.vocab_size, size=limit - 14), 5
            )
        assert numeric_engine.history_length("s") == 10
        assert numeric_engine.hcache.saved_tokens("s") == 10
        serve_round(
            numeric_engine, "s", rng.integers(0, tiny_config.vocab_size, size=limit - 15), 5
        )
        assert numeric_engine.history_length("s") == limit


class TestOneKernel:
    def test_a_restored_round_runs_only_packed_calls(
        self, tiny_model, tiny_config, default_platform, reference_rounds, serve_round
    ):
        """A served round runs on ``execute_iteration`` alone: the prompt
        is one fused call, each output token one decode call, and the
        restore (token-sourced layer 0) runs no forward kernel at all."""
        rng = np.random.default_rng(25)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=n) for n in (12, 7)]
        # A model of its own: the spies below are attributes of the instance.
        model = Transformer.from_seed(tiny_config, seed=7)
        storage = StorageManager(build_storage_array(default_platform))
        engine = NumericServingEngine(model, HCacheEngine(model, storage))
        engine.open_session("s")
        serve_round(engine, "s", prompts[0], 4)
        engine.evict("s")
        calls = dict.fromkeys(("forward", "layer_forward", "forward_fused", "decode_batch"), 0)
        for name in calls:

            def counted(*args, _name=name, _real=getattr(model, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            setattr(model, name, counted)
        out = serve_round(engine, "s", prompts[1], 4)
        assert calls == {"forward": 0, "layer_forward": 0, "forward_fused": 1, "decode_batch": 4}
        assert out == reference_rounds(tiny_model, prompts, 4)[1]


class TestRestorePrecondition:
    """A restore starts only for an evicted, idle session with history."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "executor"])
    def test_start_restores_refuses_a_batch_naming_a_resident_session(
        self, tiny_model, tiny_config, default_platform, pooled, serve_round
    ):
        """The whole batch is checked before any restore starts: the
        resident cache is kept, no slab is taken, and the evicted session
        of the batch is still idle."""
        rng = np.random.default_rng(28)
        storage = StorageManager(build_storage_array(default_platform))
        with RestoreExecutor(1) if pooled else nullcontext() as executor:
            engine = NumericServingEngine(
                tiny_model, HCacheEngine(tiny_model, storage), executor=executor
            )
            for sid in ("evicted", "resident"):
                engine.open_session(sid)
                serve_round(engine, sid, rng.integers(0, tiny_config.vocab_size, size=40), 3)
            engine.evict("evicted")
            cache = engine.session("resident").kv_cache
            allocations = engine.hcache.arena.allocations
            with pytest.raises(StateError):
                engine.start_restores({"evicted": 60, "resident": 60}, background=False)
            assert engine.session("resident").kv_cache is cache
            assert engine.hcache.arena.allocations == allocations
            assert not engine.session("evicted").on_gpu
            engine.start_restores({"evicted": 60}, background=False)
            assert engine.finished_restores() == ["evicted"]

    def test_start_restores_refuses_no_history_and_a_second_restore(
        self, tiny_model, tiny_config, numeric_engine, serve_round
    ):
        numeric_engine.open_session("fresh")
        with pytest.raises(StateError):
            numeric_engine.start_restores({"fresh": 8}, background=False)
        numeric_engine.open_session("a")
        serve_round(numeric_engine, "a", np.arange(9) % tiny_config.vocab_size, 2)
        numeric_engine.evict("a")
        numeric_engine.start_restores({"a": 16}, background=False)
        with pytest.raises(StateError):
            numeric_engine.start_restores({"a": 16}, background=False)
        assert numeric_engine.finished_restores() == ["a"]
        assert len(numeric_engine.session("a").kv_cache) == 11


class TestEquivalence:
    def test_multi_round_with_eviction_matches_uninterrupted(
        self, tiny_model, tiny_config, numeric_engine, reference_rounds, serve_round
    ):
        """The paper's losslessness claim, end to end: a conversation with
        eviction + HCache restoration between every round generates the
        same tokens as one whose KV cache never left the GPU."""
        rng = np.random.default_rng(21)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=n) for n in (10, 6, 8, 5)]
        numeric_engine.open_session("s")
        interrupted = []
        for prompt in prompts:
            interrupted.append(serve_round(numeric_engine, "s", prompt, 5))
            numeric_engine.evict("s")
        assert interrupted == reference_rounds(tiny_model, prompts, 5)

    def test_eviction_only_between_some_rounds(
        self, tiny_model, tiny_config, numeric_engine, reference_rounds, serve_round
    ):
        rng = np.random.default_rng(22)
        prompts = [rng.integers(0, tiny_config.vocab_size, size=6) for _ in range(3)]
        numeric_engine.open_session("s")
        out = [serve_round(numeric_engine, "s", prompts[0], 4)]
        numeric_engine.evict("s")  # evict once
        out.append(serve_round(numeric_engine, "s", prompts[1], 4))
        out.append(serve_round(numeric_engine, "s", prompts[2], 4))  # stays on GPU
        assert out == reference_rounds(tiny_model, prompts, 4)

    def test_mixed_scheme_engine_equivalence(
        self, tiny_model, tiny_config, default_platform, reference_rounds, serve_round
    ):
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
            out.append(serve_round(engine, "s", prompt, 4))
            engine.evict("s")
        assert out == reference_rounds(tiny_model, prompts, 4)

    def test_two_concurrent_sessions_independent(
        self, tiny_model, tiny_config, numeric_engine, reference_rounds, serve_round
    ):
        rng = np.random.default_rng(24)
        pa = rng.integers(0, tiny_config.vocab_size, size=9)
        pb = rng.integers(0, tiny_config.vocab_size, size=9)
        numeric_engine.open_session("a")
        numeric_engine.open_session("b")
        out_a = serve_round(numeric_engine, "a", pa, 4)
        out_b = serve_round(numeric_engine, "b", pb, 4)
        numeric_engine.evict("a")
        numeric_engine.evict("b")
        out_a2 = serve_round(numeric_engine, "a", pb, 4)
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
        self, tiny_model, tiny_config, default_platform, serve_round
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
            serve_round(engine, "a", prompt, 4)
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
            with pytest.raises(StateError):
                engine.wait_for_restores()  # nothing is left to wait for
            assert engine.finished_restores() == []

    def test_close_discards_a_restore_that_fails(
        self, tiny_model, tiny_config, default_platform, serve_round
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
            serve_round(engine, "a", prompt, 4)
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
