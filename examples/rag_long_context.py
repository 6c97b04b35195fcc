"""RAG / long-context serving with offline state generation (§3.1).

RAG applications reuse the same long documents across many queries hours
apart (§2.4).  HCache generates and saves the documents' hidden states
*offline*; at query time the states stream back while the K/V projections
overlap the transfer.  This example builds an L-Eval-shaped document pool,
replays Zipf-skewed query traffic through a GPU-resident LRU cache, and
compares the TTFT each restoration method delivers on misses — the Fig. 15
scenario as a library user would script it.

Run:  python examples/rag_long_context.py
"""

from __future__ import annotations

from repro.cache import GPUCacheSimulator
from repro.core import hcache_timing, ttft
from repro.engine import concurrent_context_estimate
from repro.models import model_preset
from repro.simulator import platform_preset
from repro.traces import LEvalGenerator


def main() -> None:
    config = model_preset("llama2-7b")
    platform = platform_preset("a100-4ssd")
    gen = LEvalGenerator(seed=11)
    documents = gen.sample_context_pool("paper-assistant", 30)

    avg_doc = sum(d.context_tokens for d in documents) / len(documents)
    resident = concurrent_context_estimate(config, platform, int(avg_doc))
    print(f"document pool: {len(documents)} docs, avg {avg_doc:.0f} tokens")
    print(f"GPU can keep ~{resident} documents resident; the rest restore on demand\n")

    methods = ("recompute", "kv-offload", "hcache")
    simulator = GPUCacheSimulator(config, platform)

    print(f"{'skew':>8}  {'hit ratio':>9}  " + "  ".join(f"{m:>12}" for m in methods))
    for alpha in (None, 1.4, 2.0):
        row = []
        hit = None
        for method in methods:
            result = simulator.replay(documents, method, n_requests=1500, alpha=alpha, seed=1)
            hit = result.hit_ratio
            row.append(f"{result.mean_ttft * 1e3:9.1f} ms")
        label = "uniform" if alpha is None else f"a={alpha}"
        print(f"{label:>8}  {hit * 100:8.0f}%  " + "  ".join(row))

    print("\nmiss-path detail (one 10.6K-token document):")
    doc = documents[0]
    for name in methods:
        seconds = ttft(name, config, platform, doc.context_tokens, doc.input_tokens)
        print(f"  {name:>11}: TTFT {seconds * 1e3:7.1f} ms")
    _, decision = hcache_timing(config, platform, doc.context_tokens)
    print(f"\nscheduler partition for this document: {decision.describe()}")


if __name__ == "__main__":
    main()
