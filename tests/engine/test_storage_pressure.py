"""A full storage tier refuses an iteration whole, and the loop stays consistent.

Four sessions each submit a 150-token prompt at once, into host storage
capped at 2.5x one session's chunk slots: the first iteration's saves
cannot all fit.  The iteration is refused before the packed call, so no
session ends up with cache rows its token log does not cover, or runs
half-written — every later step is refused the same way, with the same
typed error, instead of tripping over the first step's leftovers.

Making room (demoting cold contexts to their token log) and failing only
the request that does not fit are not this file's contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hcache import HCacheEngine
from repro.core.profiler import build_storage_array
from repro.engine import MemoryBudget, ServingFrontend, ServingRequest
from repro.engine.numeric_engine import NumericServingEngine
from repro.errors import AllocationError
from repro.storage.manager import StorageManager

PROMPT_TOKENS = 150
#: Chunk-slot bytes of one tiny-llama session of up to 192 tokens: three
#: stored layers of three 64-token chunks, 64 float32 per row.
SESSION_BYTES = 147_456
SESSIONS = ("s0", "s1", "s2", "s3")
STEPS = 8


def test_an_iteration_whose_saves_cannot_fit_changes_nothing(
    tiny_model, tiny_config, default_platform
):
    rng = np.random.default_rng(25)
    storage = StorageManager(
        build_storage_array(default_platform), capacity_bytes=int(2.5 * SESSION_BYTES)
    )
    engine = NumericServingEngine(tiny_model, HCacheEngine(tiny_model, storage))
    frontend = ServingFrontend(
        engine, MemoryBudget(capacity_tokens=1 << 20), evict_on_finish=True
    )
    for sid in SESSIONS:
        frontend.submit(
            ServingRequest(
                session_id=sid,
                prompt_tokens=rng.integers(0, tiny_config.vocab_size, size=PROMPT_TOKENS),
                max_new_tokens=4,
            )
        )

    for _ in range(STEPS):
        with pytest.raises(AllocationError, match="saving the iteration"):
            frontend.step()

    for sid in SESSIONS:
        state = engine.session(sid)
        logged = len(state.tokens)
        assert state.kv_cache is None or len(state.kv_cache) == logged
        assert engine.hcache.saved_tokens(sid) == logged
        assert all(
            storage.tokens_stored(sid, layer, kind) == logged for layer, kind in storage.runs(sid)
        )
    assert storage.allocated_bytes == sum(storage.context_bytes(sid) for sid in SESSIONS)
