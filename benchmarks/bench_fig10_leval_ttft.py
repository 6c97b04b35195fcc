"""Figure 10 — TTFT of long-context applications (L-Eval, batch size 1).

Four panels: three representative sub-tasks plus a 200-request mixed
sample, each across Llama2-7B/13B and OPT-30B.  Paper: HCache achieves
1.62-1.93x TTFT speedup over KV offload and 2.66-5.73x over recomputation.
"""

from __future__ import annotations

import numpy as np
from _common import emit, run_once

from repro.analysis.reporting import PaperExpectation, ResultTable
from repro.core.restoration import DEFAULT_METHODS, ttft
from repro.models import model_preset
from repro.simulator import platform_preset
from repro.traces import LEvalGenerator

SETUPS = [
    ("llama2-7b", "a100-4ssd"),
    ("llama2-13b", "a100-4ssd"),
    ("opt-30b", "a100x4-4ssd"),
]
TASKS = ("paper-assistant", "gsm-100", "quality", "mixed")


def measure():
    gen = LEvalGenerator(seed=2)
    requests_by_task = {
        task: (gen.sample_mixed(200) if task == "mixed" else gen.sample_task(task, 100))
        for task in TASKS
    }
    results = {}
    for model_name, platform_name in SETUPS:
        config = model_preset(model_name)
        platform = platform_preset(platform_name)
        for task, requests in requests_by_task.items():
            ttfts = {
                name: float(
                    np.mean(
                        [
                            ttft(name, config, platform, r.context_tokens, r.input_tokens)
                            for r in requests
                        ]
                    )
                )
                for name in DEFAULT_METHODS
            }
            results[(task, model_name)] = ttfts
    return results


def test_fig10_long_context_ttft(benchmark):
    results = run_once(benchmark, measure)
    table = ResultTable(
        "Figure 10: long-context TTFT (seconds)",
        ["task", "model", "recompute", "kv-offload", "hcache", "ideal", "kv/h", "rec/h"],
    )
    ratios_offload, ratios_recompute = [], []
    for (task, model_name), ttfts in results.items():
        kv_ratio = ttfts["kv-offload"] / ttfts["hcache"]
        rec_ratio = ttfts["recompute"] / ttfts["hcache"]
        ratios_offload.append(kv_ratio)
        ratios_recompute.append(rec_ratio)
        table.add_row(
            task,
            model_name,
            f"{ttfts['recompute']:.3f}",
            f"{ttfts['kv-offload']:.3f}",
            f"{ttfts['hcache']:.3f}",
            f"{ttfts['ideal']:.3f}",
            f"{kv_ratio:.2f}x",
            f"{rec_ratio:.2f}x",
        )
    expectations = [
        PaperExpectation(
            "TTFT speedup vs KV offload", "1.62-1.93x",
            f"{min(ratios_offload):.2f}-{max(ratios_offload):.2f}x",
            holds=all(1.3 < r < 2.4 for r in ratios_offload),
        ),
        PaperExpectation(
            "TTFT speedup vs recompute", "2.66-5.73x",
            f"{min(ratios_recompute):.2f}-{max(ratios_recompute):.2f}x",
            holds=all(1.8 < r < 9.0 for r in ratios_recompute),
        ),
    ]
    emit("fig10_leval_ttft", [table], expectations)
    for ttfts in results.values():
        assert ttfts["hcache"] < ttfts["kv-offload"] < ttfts["recompute"]
