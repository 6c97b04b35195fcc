"""Figure 11 — sensitivity analysis (GPUs, SSD count, context length).

Three sweeps over restoration speed (K tokens/s):

- **a-c**: varying GPU with the DRAM backend.  Paper: HCache beats KV
  offload by 1.33-1.81x and recomputation by 5.04-9.05x.
- **d-f**: varying SSD count.  Paper: 1.7-2.6x over KV offload
  (2.09-2.66x at one SSD per GPU).
- **g-i**: varying context length.  Paper: recomputation degrades with
  history; HCache and KV offload scale flat.
"""

from __future__ import annotations

from _common import emit, run_once

from repro.analysis.reporting import PaperExpectation, ResultTable
from repro.core.restoration import DEFAULT_METHODS, method_timing
from repro.models import model_preset
from repro.simulator import platform_preset

N_TOKENS = 1024

GPU_PANELS = {
    "llama2-7b": ("a100-dram", "4090-dram", "a30-dram"),
    "llama2-13b": ("h800-dram", "a100-dram", "l20-dram"),
    "opt-30b": ("h800-dram", "a100x4-dram", "h800x2-dram"),
}


def speeds_for(config_name: str, platform) -> dict[str, float]:
    config = model_preset(config_name)
    return {
        name: method_timing(name, config, platform, N_TOKENS).restoration_speed / 1e3
        for name in DEFAULT_METHODS
        if name != "ideal"
    }


def run_gpu_sweep():
    rows = []
    for model_name, platforms in GPU_PANELS.items():
        for platform_name in platforms:
            speeds = speeds_for(model_name, platform_preset(platform_name))
            rows.append((model_name, platform_name, speeds))
    return rows


def test_fig11abc_gpu_sweep(benchmark):
    rows = run_once(benchmark, run_gpu_sweep)
    table = ResultTable(
        "Figure 11a-c: restoration speed by GPU (K tokens/s, DRAM backend)",
        ["model", "platform", "recompute", "kv-offload", "hcache", "h/kv", "h/rec"],
    )
    offload_ratios, recompute_ratios = [], []
    for model_name, platform_name, speeds in rows:
        h_kv = speeds["hcache"] / speeds["kv-offload"]
        h_rec = speeds["hcache"] / speeds["recompute"]
        offload_ratios.append(h_kv)
        recompute_ratios.append(h_rec)
        table.add_row(
            model_name, platform_name,
            f"{speeds['recompute']:.1f}", f"{speeds['kv-offload']:.1f}",
            f"{speeds['hcache']:.1f}", f"{h_kv:.2f}x", f"{h_rec:.2f}x",
        )
    expectations = [
        PaperExpectation(
            "speedup vs KV offload", "1.33-1.81x",
            f"{min(offload_ratios):.2f}-{max(offload_ratios):.2f}x",
            holds=all(1.15 < r < 2.0 for r in offload_ratios),
        ),
        PaperExpectation(
            "speedup vs recompute", "5.04-9.05x",
            f"{min(recompute_ratios):.2f}-{max(recompute_ratios):.2f}x",
            holds=all(4.0 < r < 20.0 for r in recompute_ratios),
        ),
    ]
    emit("fig11abc_gpus", [table], expectations)
    assert all(r > 1.15 for r in offload_ratios)
    assert all(r > 4.0 for r in recompute_ratios)


def run_ssd_sweep():
    results = {}
    for model_name, counts in (
        ("llama2-7b", (1, 2, 3, 4)),
        ("llama2-13b", (1, 2, 3, 4)),
        ("opt-30b", (4, 8, 12, 16)),
    ):
        base = platform_preset("a100x4-4ssd" if model_name == "opt-30b" else "a100-4ssd")
        for count in counts:
            speeds = speeds_for(model_name, base.with_ssds(count))
            results[(model_name, count)] = speeds
    return results


def test_fig11def_ssd_sweep(benchmark):
    results = run_once(benchmark, run_ssd_sweep)
    table = ResultTable(
        "Figure 11d-f: restoration speed by SSD count (K tokens/s)",
        ["model", "#SSDs", "recompute", "kv-offload", "hcache", "h/kv"],
    )
    ratios = []
    for (model_name, count), speeds in results.items():
        ratio = speeds["hcache"] / speeds["kv-offload"]
        ratios.append(ratio)
        table.add_row(
            model_name, count,
            f"{speeds['recompute']:.1f}", f"{speeds['kv-offload']:.1f}",
            f"{speeds['hcache']:.1f}", f"{ratio:.2f}x",
        )
    single_disk = results[("llama2-7b", 1)]
    single_ratio = single_disk["hcache"] / single_disk["kv-offload"]
    expectations = [
        PaperExpectation(
            "overall speedup vs KV offload", "1.7-2.6x",
            f"{min(ratios):.2f}-{max(ratios):.2f}x",
            holds=all(1.5 < r < 3.0 for r in ratios),
        ),
        PaperExpectation(
            "one-SSD speedup", "2.09-2.66x", f"{single_ratio:.2f}x",
            holds=2.0 < single_ratio < 3.0,
        ),
    ]
    emit("fig11def_ssds", [table], expectations)
    assert 2.0 < single_ratio < 3.0
    # KV offload scales with disks; ratio shrinks as IO stops being scarce.
    assert results[("llama2-7b", 4)]["kv-offload"] > 3 * results[("llama2-7b", 1)]["kv-offload"]


def run_ctx_sweep():
    results = {}
    for model_name, lengths in (
        ("llama2-7b", (1024, 4096, 8192, 16384)),
        ("llama2-13b", (1024, 4096, 8192, 16384)),
        ("opt-30b", (1024, 8192, 16384, 32768)),
    ):
        platform = platform_preset("a100x4-4ssd" if model_name == "opt-30b" else "a100-4ssd")
        config = model_preset(model_name)
        for n in lengths:
            results[(model_name, n)] = {
                name: method_timing(name, config, platform, n).restoration_speed / 1e3
                for name in DEFAULT_METHODS
                if name != "ideal"
            }
    return results


def test_fig11ghi_context_sweep(benchmark):
    results = run_once(benchmark, run_ctx_sweep)
    table = ResultTable(
        "Figure 11g-i: restoration speed by context length (K tokens/s)",
        ["model", "ctx", "recompute", "kv-offload", "hcache"],
    )
    for (model_name, n), speeds in results.items():
        table.add_row(
            model_name, n,
            f"{speeds['recompute']:.1f}", f"{speeds['kv-offload']:.1f}",
            f"{speeds['hcache']:.1f}",
        )
    rec_drop = (
        results[("llama2-7b", 16384)]["recompute"]
        / results[("llama2-7b", 1024)]["recompute"]
    )
    h_drop = (
        results[("llama2-7b", 16384)]["hcache"] / results[("llama2-7b", 1024)]["hcache"]
    )
    expectations = [
        PaperExpectation(
            "7B recompute decay 1K->16K", "-28% (measured; model predicts -13%)",
            f"{(rec_drop - 1) * 100:.0f}%", holds=rec_drop < 0.92,
        ),
        PaperExpectation(
            "7B HCache decay 1K->16K", "~0 (scales linearly)",
            f"{(h_drop - 1) * 100:.0f}%", holds=h_drop > 0.85,
        ),
    ]
    emit("fig11ghi_ctxlen", [table], expectations)
    assert rec_drop < h_drop
