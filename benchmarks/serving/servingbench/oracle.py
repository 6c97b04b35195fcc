"""Correctness oracle: uninterrupted resident reference streams.

The reference for a request is what a session that was never evicted,
never batched and never chunked generates for the same conversation:
plain serial ``Transformer.forward`` calls on a copy of the template's
KV cache.  It shares no code with the restore, batching or storage paths
the benchmark measures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.models.kv_cache import KVCache
from repro.models.transformer import BATCHED_DECODE_ATOL, Transformer

from .rig import Template
from .workloads import Script, ScriptedRequest

#: A served stream may leave the reference only where the reference's top
#: two logits are closer than the documented rounding band of the batched
#: model calls (both logits can move by the tolerance, hence twice).
TIE_MARGIN = 2 * BATCHED_DECODE_ATOL


@dataclass
class ReferenceStream:
    tokens: list[int]
    #: Top-1 minus top-2 logit at each generated position.
    margins: list[float]


def generate(
    model: Transformer, cache: KVCache, prompt: np.ndarray, n_tokens: int
) -> ReferenceStream:
    """Greedy generation, feeding every generated token (like ``chat_round``)."""
    logits = model.forward(prompt, cache).logits[-1]
    tokens: list[int] = []
    margins: list[float] = []
    for _ in range(n_tokens):
        top2 = np.partition(logits, -2)[-2:]
        token = int(np.argmax(logits))
        tokens.append(token)
        margins.append(float(top2[1] - top2[0]))
        logits = model.forward(np.array([token]), cache).logits[-1]
    return ReferenceStream(tokens, margins)


class Oracle:
    """Reference streams for every request of a script."""

    def __init__(self, model: Transformer, script: Script, template: Template | None):
        self._streams: dict[tuple[int, int], ReferenceStream] = {}
        for requests in script.users:
            cache = (
                copy.deepcopy(template.cache)
                if template is not None
                else KVCache(model.config)
            )
            # Every request of a user starts from the same history with the
            # same prompt, so the longest stream holds the others as prefixes.
            longest = max(r.max_new_tokens for r in requests)
            stream = generate(model, cache, requests[0].prompt, longest)
            for request in requests:
                n = request.max_new_tokens
                self._streams[(request.user, request.round)] = ReferenceStream(
                    stream.tokens[:n], stream.margins[:n]
                )

    def judge(self, request: ScriptedRequest, tokens: tuple[int, ...]) -> str:
        """``"match"``, ``"tie"`` (left the reference at a rounding tie) or ``"wrong"``."""
        reference = self._streams[(request.user, request.round)]
        if list(tokens) == reference.tokens:
            return "match"
        if len(tokens) != len(reference.tokens):
            return "wrong"
        first = next(i for i, (a, b) in enumerate(zip(tokens, reference.tokens)) if a != b)
        return "tie" if reference.margins[first] <= TIE_MARGIN else "wrong"
