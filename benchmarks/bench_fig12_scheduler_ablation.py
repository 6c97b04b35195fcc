"""Figure 12 — ablation of the bubble-free scheduler.

Three hardware regimes (IO-sufficient: A30 + 4 SSDs; compute-sufficient:
A100 + 1 SSD; balanced: A100 + 4 SSDs with 13B) across five methods.
Paper findings:

- Naive Hybrid is the best method without hidden states; HCache beats it
  by 1.28-1.42x.
- HCache-O (no scheduler) trails KV offload on the IO-sufficient setup.
- The scheduler lifts HCache-O by 1.35-1.64x on skewed hardware and keeps
  HCache 1.45-2.66x ahead of KV offload everywhere.
"""

from __future__ import annotations

from _common import emit, run_once

from repro.analysis.reporting import PaperExpectation, ResultTable
from repro.core.restoration import METHODS, method_timing
from repro.models import model_preset
from repro.simulator import platform_preset

REGIMES = [
    ("io-sufficient", "llama2-7b", "A30 + 7B + 4 SSDs"),
    ("compute-sufficient", "llama2-7b", "A100 + 7B + 1 SSD"),
    ("balanced", "llama2-13b", "A100 + 13B + 4 SSDs"),
]
N_TOKENS = 1024


def measure():
    results = {}
    for regime, model_name, label in REGIMES:
        config = model_preset(model_name)
        platform = platform_preset(regime)
        results[(regime, label)] = {
            name: method_timing(name, config, platform, N_TOKENS).restoration_speed / 1e3
            for name in METHODS
            if name != "ideal"
        }
    return results


def test_fig12_scheduler_ablation(benchmark):
    results = run_once(benchmark, measure)
    table = ResultTable(
        "Figure 12: scheduler ablation (restoration K tokens/s)",
        ["regime", "recompute", "kv-offload", "hcache-o", "naive-hybrid", "hcache"],
    )
    for (regime, label), speeds in results.items():
        table.add_row(
            label,
            f"{speeds['recompute']:.1f}",
            f"{speeds['kv-offload']:.1f}",
            f"{speeds['hcache-o']:.1f}",
            f"{speeds['naive-hybrid']:.1f}",
            f"{speeds['hcache']:.1f}",
        )

    by_regime = {regime: speeds for (regime, _), speeds in results.items()}
    hybrid_gains = [s["hcache"] / s["naive-hybrid"] for s in by_regime.values()]
    io_suff = by_regime["io-sufficient"]
    scheduler_gain_io = io_suff["hcache"] / io_suff["hcache-o"]
    comp_suff = by_regime["compute-sufficient"]
    scheduler_gain_comp = comp_suff["hcache"] / comp_suff["hcache-o"]
    kv_margins = [s["hcache"] / s["kv-offload"] for s in by_regime.values()]

    expectations = [
        PaperExpectation(
            "HCache vs naive hybrid", "1.28-1.42x",
            f"{min(hybrid_gains):.2f}-{max(hybrid_gains):.2f}x",
            holds=all(1.15 < g < 1.8 for g in hybrid_gains),
        ),
        PaperExpectation(
            "HCache-O trails KV offload (IO-sufficient)", "-13%",
            f"{(io_suff['hcache-o'] / io_suff['kv-offload'] - 1) * 100:.0f}%",
            holds=io_suff["hcache-o"] < io_suff["kv-offload"],
        ),
        PaperExpectation(
            "scheduler gain on skewed hardware", "1.35-1.64x",
            f"{scheduler_gain_io:.2f}x / {scheduler_gain_comp:.2f}x",
            holds=scheduler_gain_io > 1.2 and scheduler_gain_comp > 1.2,
        ),
        PaperExpectation(
            "HCache vs KV offload everywhere", "1.45-2.66x",
            f"{min(kv_margins):.2f}-{max(kv_margins):.2f}x",
            holds=all(m > 1.25 for m in kv_margins),
        ),
    ]
    emit("fig12_scheduler_ablation", [table], expectations)
    assert io_suff["hcache-o"] < io_suff["kv-offload"]
    assert all(m > 1.25 for m in kv_margins)
    for speeds in by_regime.values():
        assert speeds["hcache"] == max(speeds.values())
