"""Quickstart: save, evict, and restore LLM state with HCache.

Runs a small transformer for real: prefills a prompt while capturing the
per-layer hidden states, persists them through the chunked storage manager,
drops the GPU-side KV cache, restores it from the hidden states, and checks
the restored cache is identical.  Then prints the modelled restoration-time
comparison for Llama2-7B on the paper's default testbed (one A100 + four
PM9A3 SSDs).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import DEFAULT_METHODS, HCacheEngine, hcache_timing, method_timing
from repro.core.profiler import build_storage_array
from repro.models import KVCache, Transformer, model_preset
from repro.simulator import platform_preset
from repro.storage import StorageManager


def main() -> None:
    # --- 1. a real (tiny) model and the default testbed ----------------
    config = model_preset("tiny-llama")
    model = Transformer.from_seed(config, seed=0)
    platform = platform_preset("default")
    storage = StorageManager(build_storage_array(platform))
    _, decision = hcache_timing(config, platform, 1024)
    engine = HCacheEngine(model, storage, scheme=decision.scheme)
    print(f"model: {config.name} ({config.n_layers} layers, d={config.hidden_size})")
    print(f"partition scheme chosen by the bubble-free scheduler: {engine.scheme.describe()}")

    # --- 2. prefill, capturing hidden states ---------------------------
    prompt = np.arange(40) % config.vocab_size
    engine.register_context("demo")
    kv_cache = KVCache(config)
    # The serving path's one model call: its per-layer inputs are the
    # hidden states HCache saves.
    result = model.forward_fused([prompt], [kv_cache])
    engine.save_states("demo", result.hidden_states, prompt, kv_cache=kv_cache)
    engine.seal("demo")
    print(f"saved {engine.saved_tokens('demo')} tokens of state "
          f"({storage.per_token_bytes('demo'):.0f} B/token on host storage)")

    # --- 3. evict and restore ------------------------------------------
    evicted = kv_cache  # pretend this left the GPU
    restored = engine.restore("demo")
    print(f"restored KV cache identical to the evicted one: {evicted.equals(restored)}")

    # --- 4. what this buys at serving scale ----------------------------
    seven_b = model_preset("llama2-7b")
    print(f"\nrestoring 2048 tokens of {seven_b.name} on {platform.gpu.name} + 4x PM9A3:")
    for name in DEFAULT_METHODS:
        if name == "ideal":
            continue
        timing = method_timing(name, seven_b, platform, 2048)
        print(
            f"  {name:>11}: {timing.makespan * 1e3:7.2f} ms "
            f"({timing.restoration_speed / 1e3:6.1f}K tokens/s)"
        )


if __name__ == "__main__":
    main()
