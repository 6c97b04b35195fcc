"""Hardware capacity planner built on the HCache performance model.

Given a model and a set of candidate platforms, reports — per platform —
the bubble-free scheduler's partition, restoration speed versus the
baselines, per-token storage cost, and the storage bandwidth needed for a
balanced pipeline (§6.1.3).  This is the §4.1.2 offline-profiling workflow
packaged as a deployment-planning tool.

Run:  python examples/capacity_planner.py [model]
"""

from __future__ import annotations

import sys

from repro.analysis.reporting import ResultTable
from repro.core import hcache_timing, method_timing
from repro.models import model_preset
from repro.simulator import platform_preset

CANDIDATES = [
    "a100-4ssd",
    "a100-1ssd",
    "a100-dram",
    "a30-dram",
    "4090-dram",
    "l20-dram",
    "h800-dram",
]


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "llama2-7b"
    config = model_preset(model_name)
    n_tokens = 2048

    table = ResultTable(
        f"HCache deployment plan for {config.name} ({n_tokens}-token histories)",
        ["platform", "partition", "hcache K tok/s", "kv-offload", "recompute",
         "storage KiB/tok", "bubble"],
    )
    for name in CANDIDATES:
        platform = platform_preset(name)
        timing, decision = hcache_timing(config, platform, n_tokens)
        kv_offload = method_timing("kv-offload", config, platform, n_tokens)
        recompute = method_timing("recompute", config, platform, n_tokens)
        table.add_row(
            name,
            decision.scheme.describe(),
            f"{timing.restoration_speed / 1e3:.1f}",
            f"{kv_offload.restoration_speed / 1e3:.1f}",
            f"{recompute.restoration_speed / 1e3:.1f}",
            f"{decision.scheme.storage_bytes_per_token(config) / 1024:.0f}",
            f"{decision.predicted_bubble_fraction * 100:.1f}%",
        )
    table.show()

    print(
        "\nreading guide: pick the platform whose hcache column meets your "
        "TTFT budget;\nthe partition column shows how the scheduler balances "
        "the pipeline there\n(H = hidden states, KV = offloaded KV layers, "
        "RE = token-recomputed layers)."
    )


if __name__ == "__main__":
    main()
