"""Ablation benches for the paper's §7 extensions and DESIGN.md choices.

Not figures from the paper — these quantify the extension features this
reproduction adds on top of the core system:

- **GQA sweep**: how grouped-query attention moves the hidden-vs-KV
  crossover and what the (search) scheduler does about it.
- **Chunk-size ablation**: the 64-token choice of §4.2.1 versus smaller
  (IOPS-bound) and larger (fragmentation-bound) chunks.
"""

from __future__ import annotations

from _common import emit, run_once

from repro.analysis.reporting import PaperExpectation, ResultTable
from repro.core.gqa import analyze_gqa, gqa_crossover_heads
from repro.core.profiler import build_storage_array
from repro.models import model_preset
from repro.simulator import platform_preset
from repro.storage.chunk import ChunkLayout


def test_abl_gqa_crossover(benchmark):
    def run():
        config = model_preset("llama2-7b")
        platform = platform_preset("default")
        return [
            (kv_heads, analyze_gqa(config, platform, 1024, kv_heads))
            for kv_heads in (32, 16, 8, 4, 1)
        ]

    rows = run_once(benchmark, run)
    config = model_preset("llama2-7b")
    table = ResultTable(
        "GQA ablation: hidden-vs-KV crossover (7B-family, A100 + 4 SSDs)",
        ["kv heads", "hidden/KV bytes", "hcache wins IO?", "scheduler picks", "makespan (ms)"],
    )
    for kv_heads, analysis in rows:
        table.add_row(
            kv_heads,
            f"{analysis.hidden_to_kv_ratio:.2f}",
            "yes" if analysis.hcache_transmission_wins else "no",
            analysis.decision.scheme.describe(),
            f"{analysis.decision.predicted_makespan * 1e3:.1f}",
        )
    expectations = [
        PaperExpectation(
            "crossover point", f"kv_heads = {gqa_crossover_heads(config)} (heads/2)",
            "hidden/KV = 1.0 at 16 heads",
            holds=abs(dict(rows)[16].hidden_to_kv_ratio - 1.0) < 1e-9,
        ),
        PaperExpectation(
            "scheduler adapts", "pure KV below crossover (per §7 discussion)",
            dict(rows)[4].decision.scheme.describe(),
            holds=dict(rows)[4].decision.scheme.n_kv > dict(rows)[4].decision.scheme.n_hidden,
        ),
    ]
    emit("abl_gqa_crossover", [table], expectations)
    assert dict(rows)[32].decision.scheme.n_hidden > 0
    assert dict(rows)[1].decision.scheme.n_hidden == 0


def test_abl_chunk_size(benchmark):
    """§4.2.1's 64-token chunk: small chunks pay per-IO latency, large
    chunks pay internal fragmentation on every (layer, context) tail."""

    def run():
        config = model_preset("llama2-7b")
        platform = platform_preset("default")
        array = build_storage_array(platform)
        n_tokens = 1024 + 37  # a realistic non-aligned context length
        rows = []
        for chunk_tokens in (8, 16, 64, 256, 1024):
            layout = ChunkLayout(
                tokens_per_chunk=chunk_tokens,
                bytes_per_token=config.hidden_bytes_per_token_layer,
            )
            read = array.layer_read_timing(layout.chunks_for(n_tokens), layout.chunk_bytes)
            frag = layout.internal_fragmentation(n_tokens) * config.n_layers
            rows.append((chunk_tokens, read.seconds, frag))
        return rows

    rows = run_once(benchmark, run)
    table = ResultTable(
        "Chunk-size ablation (7B layer read of 1061 tokens, 4 SSDs)",
        ["tokens/chunk", "layer read (us)", "context fragmentation (KiB)"],
    )
    for chunk_tokens, seconds, frag in rows:
        table.add_row(chunk_tokens, f"{seconds * 1e6:.0f}", f"{frag / 1024:.0f}")
    by_size = {r[0]: r for r in rows}
    expectations = [
        PaperExpectation(
            "64-token read within 5% of huge chunks", "design point of §4.2.1",
            f"{by_size[64][1] / by_size[1024][1]:.3f}x",
            holds=by_size[64][1] < by_size[1024][1] * 1.05,
        ),
        PaperExpectation(
            "64-token fragmentation far below huge chunks", "bounded by one chunk",
            f"{by_size[64][2] / 1024:.0f} vs {by_size[1024][2] / 1024:.0f} KiB",
            holds=by_size[64][2] < by_size[1024][2] / 4,
        ),
    ]
    emit("abl_chunk_size", [table], expectations)
    assert by_size[8][1] > by_size[64][1]  # tiny chunks are IOPS-bound
    assert by_size[64][2] < by_size[1024][2]

