"""Shared fixtures: tiny executable models, platforms, storage stacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, ServingFrontend, ServingRequest
from repro.models import Transformer, model_preset
from repro.simulator import platform_preset
from repro.storage import StorageManager


@pytest.fixture(scope="session")
def tiny_config():
    return model_preset("tiny-llama")


@pytest.fixture(scope="session")
def tiny_opt_config():
    return model_preset("tiny-opt")


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return Transformer.from_seed(tiny_config, seed=7)


@pytest.fixture(scope="session")
def tiny_opt_model(tiny_opt_config):
    return Transformer.from_seed(tiny_opt_config, seed=7)


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_tokens(rng: np.random.Generator, vocab: int, n: int) -> np.ndarray:
    return rng.integers(0, vocab, size=n)
