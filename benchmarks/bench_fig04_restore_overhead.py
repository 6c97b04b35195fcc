"""Figure 4 — comparison of state-restoration overhead.

L-Eval-style long contexts on the paper's testbeds: TTFT of recomputation
and KV offload versus the no-restoration ideal.  Paper: recomputation is
20.0-26.0x slower than ideal, KV offload 6.5-13.0x.
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


def measure():
    requests = LEvalGenerator(seed=1).sample_mixed(60)
    results = {}
    for model_name, platform_name in SETUPS:
        config = model_preset(model_name)
        platform = platform_preset(platform_name)
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
        results[model_name] = ttfts
    return results


def test_fig04_restoration_overhead(benchmark):
    results = run_once(benchmark, measure)
    table = ResultTable(
        "Figure 4: TTFT on L-Eval mixed trace (seconds; slowdown vs ideal)",
        ["model", "ideal", "kv-offload", "recompute", "kv/ideal", "rec/ideal"],
    )
    expectations = []
    for model_name, ttfts in results.items():
        kv_ratio = ttfts["kv-offload"] / ttfts["ideal"]
        rec_ratio = ttfts["recompute"] / ttfts["ideal"]
        table.add_row(
            model_name,
            f"{ttfts['ideal']:.3f}",
            f"{ttfts['kv-offload']:.3f}",
            f"{ttfts['recompute']:.3f}",
            f"{kv_ratio:.1f}x",
            f"{rec_ratio:.1f}x",
        )
        expectations.append(
            PaperExpectation(
                f"{model_name} recompute slowdown", "20.0-26.0x", f"{rec_ratio:.1f}x",
                holds=15 < rec_ratio < 45,
            )
        )
        expectations.append(
            PaperExpectation(
                f"{model_name} KV-offload slowdown", "6.5-13.0x", f"{kv_ratio:.1f}x",
                holds=5 < kv_ratio < 18,
            )
        )
    emit("fig04_restore_overhead", [table], expectations)
    for ttfts in results.values():
        assert ttfts["recompute"] > ttfts["kv-offload"] > ttfts["ideal"]
