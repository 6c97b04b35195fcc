"""Shared fixtures: tiny executable models, platforms, storage stacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, ServingFrontend, ServingRequest
from repro.models import KVCache, Transformer, model_preset
from repro.simulator import platform_preset
from repro.storage import StorageManager


@pytest.fixture(scope="session")
def tiny_config():
    return model_preset("tiny-llama")


@pytest.fixture(scope="session")
def tiny_opt_config():
    return model_preset("tiny-opt")


#: Every session-scoped model, for :func:`no_method_shadowed_on_shared_models`.
SESSION_MODELS: list[Transformer] = []


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    SESSION_MODELS.append(Transformer.from_seed(tiny_config, seed=7))
    return SESSION_MODELS[-1]


@pytest.fixture(scope="session")
def tiny_opt_model(tiny_opt_config):
    SESSION_MODELS.append(Transformer.from_seed(tiny_opt_config, seed=7))
    return SESSION_MODELS[-1]


@pytest.fixture(autouse=True)
def no_method_shadowed_on_shared_models():
    """After each test, no session-scoped model may carry an instance
    attribute that shadows a ``Transformer`` method.

    ``monkeypatch.setattr(model, name, spy)`` undoes itself by setting the
    bound method it saw back into the instance ``__dict__``, where it hides
    every later class-level spy from the tests that share the model.  Spy
    on a shared model with ``monkeypatch.setitem(vars(model), name, spy)``,
    whose undo deletes the key.  A leak fails the test that made it and is
    cleared, so it fails no later test.
    """
    yield
    for model in SESSION_MODELS:
        shadowed = sorted(name for name in vars(model) if hasattr(Transformer, name))
        for name in shadowed:
            delattr(model, name)
        assert not shadowed, f"instance attributes shadow Transformer methods: {shadowed}"


@pytest.fixture(scope="session")
def seven_b():
    return model_preset("llama2-7b")


@pytest.fixture(scope="session")
def thirteen_b():
    return model_preset("llama2-13b")


@pytest.fixture(scope="session")
def opt_30b():
    return model_preset("opt-30b")


@pytest.fixture(scope="session")
def default_platform():
    """A100 + 4x PM9A3 — the paper's default testbed."""
    return platform_preset("default")


@pytest.fixture(scope="session")
def dram_platform():
    return platform_preset("a100-dram")


@pytest.fixture
def storage_manager(default_platform):
    return StorageManager(build_storage_array(default_platform))


@pytest.fixture
def serve_rounds():
    """One round for several sessions via ``ServingFrontend.submit/step``.

    ``serve(engine, [(session_id, prompt), ...], n_output_tokens)`` admits
    every round at once, runs the front end until idle (restores as one
    synchronous burst, finished sessions stay resident) and returns
    ``{session_id: generated tokens}``.
    """
    def serve(engine, rounds, n_output_tokens):
        frontend = ServingFrontend(
            engine,
            MemoryBudget(capacity_tokens=1 << 20),
            evict_on_finish=False,
            overlap_restores=False,
        )
        handles = [
            frontend.submit(
                ServingRequest(
                    session_id=session_id,
                    prompt_tokens=prompt,
                    max_new_tokens=n_output_tokens,
                )
            )
            for session_id, prompt in rounds
        ]
        frontend.run_until_idle(max_steps=10_000)
        return {handle.session_id: list(handle.result().tokens) for handle in handles}

    return serve


@pytest.fixture(scope="session")
def reference_rounds():
    """The serial oracle every serving path is checked against.

    ``reference(model, prompts, n_out, cache=None)`` runs a conversation's
    rounds through ``Transformer.forward`` on one never-evicted cache (a
    fresh one unless ``cache`` is given), feeding every generated token
    back, the last one included, as a served round does.  Returns each
    round's generated tokens.
    """
    def reference(model, prompts, n_out, cache=None):
        cache = KVCache(model.config) if cache is None else cache
        outputs = []
        for prompt in prompts:
            logits = model.forward(prompt, cache).logits[-1]
            tokens = []
            for _ in range(n_out):
                tokens.append(int(np.argmax(logits)))
                logits = model.forward(np.array(tokens[-1:]), cache).logits[-1]
            outputs.append(tokens)
        return outputs

    return reference


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_tokens(rng: np.random.Generator, vocab: int, n: int) -> np.ndarray:
    return rng.integers(0, vocab, size=n)
