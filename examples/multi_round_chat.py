"""Multi-round conversation with eviction between rounds (§2.3 scenario).

A chatbot session accumulates history round by round.  GPU memory only
holds a handful of sessions (§2.4), so this example evicts the session's
KV cache after every round and restores it from hidden states when the
user returns — then double-checks that the conversation transcript is
*identical* to one served without any eviction, and reports what the
restoration would cost for Llama2-7B at each round's history length.

Run:  python examples/multi_round_chat.py
"""

from __future__ import annotations

import numpy as np

from repro.core import HCacheEngine, hcache_timing, method_timing
from repro.core.profiler import build_storage_array
from repro.engine import NumericServingEngine
from repro.models import KVCache, Transformer, model_preset
from repro.simulator import platform_preset
from repro.storage import StorageManager

ROUNDS = [
    (12, 6),  # (prompt tokens, response tokens) per round
    (8, 6),
    (10, 6),
    (7, 6),
]


def uninterrupted_reference(model, prompts, outputs):
    cache = KVCache(model.config)
    transcript = []
    for prompt, n_out in zip(prompts, outputs):
        result = model.forward(prompt, cache)
        tokens, logits = [], result.logits[-1]
        for _ in range(n_out):
            token = int(np.argmax(logits))
            tokens.append(token)
            logits = model.forward(np.array([token]), cache).logits[-1]
        transcript.append(tokens)
    return transcript


def main() -> None:
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=3)
    platform = platform_preset("default")
    storage = StorageManager(build_storage_array(platform))
    _, decision = hcache_timing(config, platform, 1024)
    engine = NumericServingEngine(model, HCacheEngine(model, storage, scheme=decision.scheme))

    rng = np.random.default_rng(17)
    prompts = [rng.integers(0, config.vocab_size, size=n) for n, _ in ROUNDS]
    outputs = [n_out for _, n_out in ROUNDS]

    seven_b = model_preset("llama2-7b")

    engine.open_session("alice")
    transcript = []
    history = 0
    print("round  history  restore(HCache)  restore(KV offload)  response tokens")
    for i, (prompt, n_out) in enumerate(zip(prompts, outputs)):
        # The user left after the previous round; state was evicted.
        restore_note = "-"
        offload_note = "-"
        if history:
            # Cost at 7B scale for the same history length (x256 tokens to
            # make the tiny demo's lengths meaningful).
            scaled = history * 256
            hcache = method_timing("hcache", seven_b, platform, scaled)
            offload = method_timing("kv-offload", seven_b, platform, scaled)
            restore_note = f"{hcache.makespan * 1e3:8.2f} ms"
            offload_note = f"{offload.makespan * 1e3:8.2f} ms"
        response = engine.chat_round("alice", prompt, n_out)
        transcript.append(response)
        history = len(engine.session("alice").tokens)
        print(f"{i:>5}  {history:>7}  {restore_note:>15}  {offload_note:>19}  {response}")
        engine.evict("alice")

    reference = uninterrupted_reference(model, prompts, outputs)
    print(f"\ntranscript identical to never-evicted serving: {transcript == reference}")
    engine.close_session("alice")


if __name__ == "__main__":
    main()
