#!/usr/bin/env python
"""Hot-path microbenchmarks: the save/restore pipeline must stay O(n).

Measures three things at several context lengths and compares each
against the preserved pre-refactor baseline
(:mod:`repro.models.reference`):

1. **decode-with-capture state path** — the per-token state-management
   cost of a decode step that captures hidden states and persists them:
   KV-cache append + hidden-state capture + chunked storage append.
   This is the quadratic pattern the amortized-growth buffers eliminate
   (naive: two ``np.concatenate`` per layer plus per-row staging copies;
   fast: three slice writes).  The headline ``>= 10x at 4k tokens``
   acceptance target applies here.
2. **decode end-to-end** — a full ``decode_step(capture_hidden=True)``
   loop through the real transformer, pre- vs post-refactor (the naive
   side also restores the original einsum attention), so the report
   stays honest about what the whole step gains once the irreducible
   model compute is included.
3. **restore** — latency of rebuilding a KV cache from hidden states:
   the fused whole-layer granule projection vs the per-layer loop, plus the full
   storage-integrated chunk-streamed ``HCacheEngine.restore`` with its
   per-stage (read / norm / GEMM / RoPE) breakdown.  Restored caches are
   checked bit-exact against the naive path.  Exactness gate (never
   relaxed): the default engine token-sources layer 0, so its devices
   hold exactly ``N - 1`` layers of fp32 hidden rows per saved token, a
   restore issues exactly ``N - 1`` layers of chunk reads (none for
   layer 0), and the result is bit-identical to the all-stored
   (``pure_hcache``) engine's restore of the same states.
4. **threaded restore** — wall-clock of the ``repro.runtime``
   :class:`RestoreExecutor` (background IO workers) vs the
   single-threaded streamed path, both run with **device latency
   emulation** on (the simulated devices sleep their modelled IO
   seconds, so reads cost real wall clock and overlapping them with
   projections is a real win, not an accounting one).  The threaded wall
   clock is recorded next to the ``modelled_pipelined_s`` §4.1 makespan
   and their ratio (``gap_ratio``) is the tracked regression surface:
   it should stay near 1, and within the 1.5x acceptance band at 4k
   tokens.  Threaded restores are checked bit-exact too.
5. **durability** — the crash-safe storage paths: a restore whose
   primary replicas are all dead (every chunk read fails over to the
   mirror) must stay **bit-exact** and within ``DEGRADED_WALL_CEILING``x
   of the healthy wall clock, and a journaled save followed by a full
   in-memory drop must recover (``StorageManager.recover`` +
   ``HCacheEngine.recover``) to a bit-exact restore.  ``recover_s`` and
   the journal footprint are recorded; exactness is never relaxed.
6. **block sharing** — the block-paged prefix-sharing store: a
   ShareGPT-style cohort of sessions with one shared system prompt is
   saved through an engine with a :class:`repro.state.BlockStateStore`
   and through a fully private engine.  Gate: pool dedup ratio > 1
   (shared blocks are physically stored once), every pool-served restore
   **bit-exact** against the private engine's with zero device reads,
   and a fresh-pool admission restore reading strictly fewer chunks than
   the private path (it streams only the non-shared suffix).  DRAM bytes
   saved by dedup and chunk reads saved on restore are recorded.
7. **batched decode** — multi-session decode throughput: one
   ``Transformer.decode_batch`` call per step (the packed kernel, every
   session attending against its own cache) vs the serial per-session
   loop, at batch sizes 1 / 4 / 16.  Gate: >= 1.5x tokens/s over serial
   at batch 16 at 1k tokens (the ShareGPT-scale serving context; see
   ``BATCHED_SPEEDUP_FLOOR`` for why not 2x), with the
   batched caches matching the serial ones within the pinned
   ``BATCHED_DECODE_ATOL`` (the GEMV-vs-GEMM blocking caveat — see
   :mod:`repro.models.transformer`).  The 4k numbers are recorded too:
   there the tiny bench model's decode is attention-bandwidth-bound,
   serial and batched converge on the same memory floor (~1.7-2x on a
   1-core host), and the ratio is too noise-prone to gate on — which
   is itself the honest story the ROADMAP tells about decode e2e.
8. **early release** — a restoring session joins the iteration while
   its last layers are still landing (the engine reports it once the
   restore's predicted remainder fits in its last prefill-carrying
   iteration; the packed kernel waits per layer).  Run on the numeric
   engine over an executor and the latency-emulated IO-dominated device,
   with nothing pinned.  Exactness-and-count gate, never relaxed:
   front-end streams identical to the serial loop, ``early_releases >=
   1``, and every session's final cache equal to a synchronous restore
   + serial prefill — ``atol=0`` on the history rows,
   ``BATCHED_DECODE_ATOL`` on the prompt rows.

Results are printed, and written as JSON when ``--out PATH`` is given
(``--smoke`` runs a reduced-window subset that still includes the
4k-token gate sizes).  Nothing is committed: the serving benchmark
(``benchmarks/serving/``) is the record performance PRs are judged by;
this file's job is the exactness-and-floor gate.

Setting ``CHECK_RELAX_TIMING=1`` (used by CI on noisy shared runners)
widens the *timing* gates — threaded-restore speedup/gap and the
batched-decode speedup floor — while keeping every
exactness check and the 10x state-path floor strict.  The committed JSON
must be produced without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.models.transformer as transformer_mod
from repro.core.hcache import HCacheEngine, RestoreBreakdown
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.models.config import ModelConfig
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.reference import (
    NaiveKVCache,
    naive_restore_cache_from_hidden,
    naive_scaled_dot_product_attention,
)
from repro.models.transformer import BATCHED_DECODE_ATOL, Transformer
from repro.engine import (
    MemoryBudget,
    NumericServingEngine,
    ServingFrontend,
    ServingRequest,
)
from repro.runtime import RestoreExecutor
from repro.simulator import platform_preset
from repro.simulator.hardware import GB, SSDSpec
from repro.state import BlockPool, BlockStateStore
from repro.storage.array import StorageArray
from repro.traces import ShareGPTGenerator, poisson_arrival_times
from repro.storage.faults import FaultPolicy
from repro.storage.journal import ManifestJournal
from repro.storage.manager import StorageManager

#: CI relaxation knob (see scripts/check.sh and benchmarks/README.md):
#: when CHECK_RELAX_TIMING=1, the purely timing-based gates widen so
#: noisy shared runners don't flake, while bit-exactness, the batched
#: equivalence tolerance, and the 10x state-path floor stay strict.
RELAX_TIMING = os.environ.get("CHECK_RELAX_TIMING", "") == "1"

#: Threaded-restore gate thresholds (strict -> relaxed).
THREADED_SPEEDUP_FLOOR = 0.75 if RELAX_TIMING else 1.0
THREADED_GAP_CEILING = 3.0 if RELAX_TIMING else 1.5

#: Batched-decode gate threshold at batch 16 (strict -> relaxed).
#: On this 4-layer hidden-64 toy the per-segment attention calls of the
#: packed kernel are interpreter-bound: B16@1k measured 2.00x serial,
#: where the deleted stacked-block kernel (one padded attention call per
#: layer, plus an O(batch x history) re-stack on every membership change)
#: measured 2.71x.  On ``bench-mid``, where BLAS sets the time, the two
#: were equal (2.02x vs 2.08x), so the floor follows the toy's honest
#: number with the usual noise margin instead of keeping a second kernel.
BATCHED_SPEEDUP_FLOOR = 1.2 if RELAX_TIMING else 1.5

#: Degraded-read gate (strict -> relaxed): a restore that fails every
#: primary chunk read over to the mirror must finish within this
#: multiple of the healthy wall clock.  Only the *timing* side relaxes
#: under CHECK_RELAX_TIMING — the degraded and recovered restores must
#: be bit-exact unconditionally.
DEGRADED_WALL_CEILING = 3.0 if RELAX_TIMING else 2.0

#: Batch sizes measured by the batched-decode section.
DECODE_BATCH_SIZES = (1, 4, 16)

#: Context size the batched-decode gate is defined at.  1k is the
#: ShareGPT-scale serving context; at 4k the bench model's decode is
#: attention-bandwidth-bound and serial/batched share one memory floor,
#: so the ratio there is recorded but not gated (see module docstring).
BATCHED_GATE_TOKENS = 1024

#: IO worker pool used for the threaded-restore comparison.  Size 1 is
#: deliberately conservative: it is the honest setting for single-core
#: CI hosts (the workers' sleeps and memcpys overlap the main thread's
#: projections either way) and larger pools only help further.
THREADED_POOL_SIZE = 1

#: Storage device for the threaded-restore comparison.  The tiny bench
#: model's projection compute dwarfs the default 4xPM9A3 array's read
#: time (IO is ~12% of the restore), which is NOT the regime the §4.1
#: pipeline exists for — the paper's premise is state transmission
#: *comparable* to compute (IO_H ~ C_H; cf. the Fig. 12 "balanced"
#: platform).  This slower device puts the bench model in that balanced
#: regime, so the threaded/single comparison measures the overlap where
#: it matters.  The modelled makespans come from the same per-chunk
#: receipts that latency emulation sleeps, keeping wall clock and model
#: directly comparable.
BALANCED_BENCH_SSD = SSDSpec(
    name="bench-balanced",
    read_bandwidth=0.4 * GB,
    write_bandwidth=1.0 * GB,
    io_latency=20e-6,
)

#: Storage device for the early-release section.  4x slower than the
#: balanced device, so restores are IO-dominated (read time several
#: times the projection compute) and the last layers are still landing
#: when the iteration could already take the session.
EARLY_RELEASE_SSD = SSDSpec(
    name="bench-io-bound",
    read_bandwidth=0.1 * GB,
    write_bandwidth=1.0 * GB,
    io_latency=20e-6,
)

#: Small enough to execute thousands of real decode steps, big enough that
#: the O(history) copies of the naive path dominate at 4k tokens.
BENCH_CONFIG = ModelConfig(
    name="bench-tiny",
    n_layers=4,
    hidden_size=64,
    n_heads=4,
    n_kv_heads=4,
    ffn_hidden_size=128,
    n_ffn_mats=2,
    vocab_size=256,
    max_context=8192,
)

CHUNK_TOKENS = 64

#: Block-sharing section: cohort size (sessions sharing one system
#: prompt) and the pool's block size (two storage chunks, so partial
#: tails and sealed blocks both occur at every measured context).
SHARING_SESSIONS = 4
SHARING_BLOCK_TOKENS = 2 * CHUNK_TOKENS

#: Serving-frontend section (flat, run once — the §5 request loop, not a
#: per-context microbenchmark): a cohort of sessions runs a second
#: conversation round after eviction, once through the legacy serial
#: ``chat_round`` loop and once through the submit/step front end
#: (admission control + SplitFuse + one fused model call per iteration).
FRONTEND_SESSIONS = 8
FRONTEND_PROMPT_TOKENS = 64
FRONTEND_OUTPUT_TOKENS = 16
#: Gate (strict -> relaxed): the batched-continuous front end must not
#: serve the fixed-SLO round slower than the serial loop.  Token-stream
#: equality with the serial path is structural and never relaxed.
FRONTEND_SPEEDUP_FLOOR = 0.75 if RELAX_TIMING else 1.0
#: Offered-load multipliers (x the measured front-end service rate) for
#: the goodput sweep, and requests per load point.
FRONTEND_SWEEP_LOADS = (0.5, 1.0, 2.0)
FRONTEND_SWEEP_REQUESTS = 12


#: Early-release section (flat, run once): histories long enough that a
#: restore streams for a few emulated-device milliseconds, second-round
#: prompts long enough that their prefill iteration outlasts one layer of
#: it — the regime the release rule exists for.
EARLY_SESSIONS = 3
EARLY_HISTORY_TOKENS = 1024
EARLY_PROMPT_TOKENS = 256
EARLY_OUTPUT_TOKENS = 4


def _rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _best_of(f, reps: int = 3):
    result, best = f(), float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _kv_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    shape = (n, BENCH_CONFIG.n_kv_heads, BENCH_CONFIG.head_dim)
    return rng.normal(size=shape).astype(np.float32)


def _synthetic_states(
    model: Transformer, rng: np.random.Generator, n_tokens: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Token ids and per-layer hidden rows standing in for a forward pass.

    Layer 0 is the tokens' embeddings — what a real capture records, and
    what the default scheme rebuilds from the token log instead of
    storing — the deeper layers are random.
    """
    cfg = model.config
    tokens = rng.integers(0, cfg.vocab_size, size=n_tokens)
    hidden = [model.embed(tokens)] + [
        rng.normal(size=(n_tokens, cfg.hidden_size)).astype(np.float32)
        for _ in range(cfg.n_layers - 1)
    ]
    return tokens, hidden


class NaiveTailStore:
    """The pre-refactor storage tail: per-row copies into a Python list,
    ``np.stack`` to flush full chunks (the device snapshot copy included)."""

    def __init__(self, n_layers: int, width: int) -> None:
        self.tails: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self.chunks: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self.width = width

    def append(self, layer: int, states: np.ndarray) -> None:
        tail = self.tails[layer]
        tail.extend(np.array(row, copy=True) for row in states)
        while len(tail) >= CHUNK_TOKENS:
            rows = tail[:CHUNK_TOKENS]
            del tail[:CHUNK_TOKENS]
            self.chunks[layer].append(np.array(np.stack(rows), copy=True))


# ----------------------------------------------------------------------
# 1. decode-with-capture state path
# ----------------------------------------------------------------------


def bench_state_path(n_tokens: int, window: int) -> dict:
    """Per-token state-management cost at history length ``n_tokens``."""
    cfg = BENCH_CONFIG
    rng = _rng()
    history = n_tokens - window
    base_k = _kv_rows(rng, history)
    base_v = _kv_rows(rng, history)
    base_h = rng.normal(size=(history, cfg.hidden_size)).astype(np.float32)
    step_k = _kv_rows(rng, 1)
    step_v = _kv_rows(rng, 1)
    step_h = rng.normal(size=(1, cfg.hidden_size)).astype(np.float32)

    # -- naive: concatenate-growth cache + capture, per-row staging ----
    naive_cache = NaiveKVCache(cfg)
    naive_store = NaiveTailStore(cfg.n_layers, cfg.hidden_size)
    naive_capture = []
    for layer in range(cfg.n_layers):
        naive_cache.append(layer, base_k, base_v)
        naive_capture.append(base_h.copy())
        naive_store.append(layer, base_h)
    t0 = time.perf_counter()
    for _ in range(window):
        for layer in range(cfg.n_layers):
            naive_cache.append(layer, step_k, step_v)
            naive_capture[layer] = np.concatenate([naive_capture[layer], step_h], axis=0)
            naive_store.append(layer, step_h)
    naive_s = time.perf_counter() - t0

    # -- fast: amortized buffers + chunked manager ---------------------
    cache = KVCache(cfg)
    cache.reserve(n_tokens)
    capture = HiddenCapture(cfg.n_layers, cfg.hidden_size)
    capture.reserve(n_tokens)
    manager = StorageManager(build_storage_array(platform_preset("default")))
    manager.register_context("bench", n_layers=cfg.n_layers, hidden_width=cfg.hidden_size)
    start = capture.extend(history)
    for layer in range(cfg.n_layers):
        cache.append(layer, base_k, base_v)
        capture.write(layer, start, base_h)
        manager.append("bench", layer, base_h)
    t0 = time.perf_counter()
    for _ in range(window):
        row = capture.extend(1)
        for layer in range(cfg.n_layers):
            cache.append(layer, step_k, step_v)
            capture.write(layer, row, step_h)
            manager.append("bench", layer, step_h)
    fast_s = time.perf_counter() - t0

    return {
        "n_tokens": n_tokens,
        "window": window,
        "naive_tok_s": window / naive_s,
        "fast_tok_s": window / fast_s,
        "speedup": naive_s / fast_s,
    }


# ----------------------------------------------------------------------
# 2. decode end-to-end
# ----------------------------------------------------------------------


def _fill_cache(cache, rng: np.random.Generator, n: int) -> None:
    k = _kv_rows(rng, n)
    v = _kv_rows(rng, n)
    for layer in range(BENCH_CONFIG.n_layers):
        cache.append(layer, k, v)


def bench_decode_e2e(model: Transformer, n_tokens: int, window: int) -> dict:
    """Full decode_step(capture_hidden=True) loop, pre vs post refactor."""
    cfg = BENCH_CONFIG
    rng = _rng()
    history = n_tokens - window

    # -- naive: original einsum attention + concatenate growth ---------
    naive_cache = NaiveKVCache(cfg)
    _fill_cache(naive_cache, rng, history)
    captured = [
        rng.normal(size=(history, cfg.hidden_size)).astype(np.float32)
        for _ in range(cfg.n_layers)
    ]
    patched = transformer_mod.scaled_dot_product_attention
    transformer_mod.scaled_dot_product_attention = naive_scaled_dot_product_attention
    try:
        t0 = time.perf_counter()
        for _ in range(window):
            step = model.decode_step(5, naive_cache, capture_hidden=True)
            for layer in range(cfg.n_layers):
                captured[layer] = np.concatenate(
                    [captured[layer], step.hidden_states[layer]], axis=0
                )
        naive_s = time.perf_counter() - t0
    finally:
        transformer_mod.scaled_dot_product_attention = patched

    # -- fast: buffered cache/capture + decode attention fast path -----
    cache = KVCache(cfg)
    cache.reserve(n_tokens)
    _fill_cache(cache, rng, history)
    capture = HiddenCapture(cfg.n_layers, cfg.hidden_size)
    capture.reserve(n_tokens)
    start = capture.extend(history)
    for layer in range(cfg.n_layers):
        capture.write(layer, start, captured[layer][:history])
    t0 = time.perf_counter()
    for _ in range(window):
        model.forward(np.array([5]), cache, capture=capture)
    fast_s = time.perf_counter() - t0

    return {
        "n_tokens": n_tokens,
        "window": window,
        "naive_tok_s": window / naive_s,
        "fast_tok_s": window / fast_s,
        "speedup": naive_s / fast_s,
    }


# ----------------------------------------------------------------------
# 3. batched multi-session decode
# ----------------------------------------------------------------------


def bench_decode_batched(model: Transformer, n_tokens: int, window: int) -> dict:
    """Serial per-session decode vs one ``decode_batch`` call per step.

    Each batch size gets two identical session sets at ``n_tokens -
    window`` history: the serial set decodes ``window`` tokens with the
    per-session fast path (the post-PR-1 loop), the batched set decodes
    the same tokens through :meth:`Transformer.decode_batch`.
    Throughput counts every session's token; equivalence compares the
    final caches and last-step logits at the pinned
    ``BATCHED_DECODE_ATOL``.
    """
    cfg = BENCH_CONFIG
    history = n_tokens - window
    per_batch: dict[str, dict] = {}
    for n_batch in DECODE_BATCH_SIZES:
        rng = _rng()
        base_k = _kv_rows(rng, history)
        base_v = _kv_rows(rng, history)
        serial_caches: list[KVCache] = []
        batched_caches: list[KVCache] = []
        for _ in range(n_batch):
            for group in (serial_caches, batched_caches):
                cache = KVCache(cfg)
                cache.reserve(n_tokens)
                for layer in range(cfg.n_layers):
                    cache.append(layer, base_k, base_v)
                group.append(cache)

        serial_logits = [None] * n_batch
        t0 = time.perf_counter()
        for _ in range(window):
            for b, cache in enumerate(serial_caches):
                serial_logits[b] = model.forward(np.array([5]), cache).logits[-1]
        serial_s = time.perf_counter() - t0

        tokens = np.full(n_batch, 5)
        batched_logits = None
        t0 = time.perf_counter()
        for _ in range(window):
            batched_logits = model.decode_batch(tokens, batched_caches)
        batched_s = time.perf_counter() - t0

        equivalent = bool(
            np.allclose(
                batched_logits, np.stack(serial_logits), atol=BATCHED_DECODE_ATOL, rtol=0
            )
            and all(
                fast.equals(ref, atol=BATCHED_DECODE_ATOL)
                for fast, ref in zip(batched_caches, serial_caches)
            )
        )
        per_batch[str(n_batch)] = {
            "batch": n_batch,
            "window": window,
            "serial_tok_s": n_batch * window / serial_s,
            "batched_tok_s": n_batch * window / batched_s,
            "speedup": serial_s / batched_s,
            "equivalent": equivalent,
        }
    return {"n_tokens": n_tokens, "per_batch": per_batch}


# ----------------------------------------------------------------------
# 4. restore
# ----------------------------------------------------------------------


def bench_restore(model: Transformer, n_tokens: int) -> dict:
    """Projection restore (naive loop vs fused granule kernel) + engine restore."""
    cfg = BENCH_CONFIG
    rng = _rng()
    tokens, hidden = _synthetic_states(model, rng, n_tokens)

    best_of = _best_of

    naive_cache, naive_s = best_of(lambda: naive_restore_cache_from_hidden(model, hidden))
    fast_cache, fast_s = best_of(lambda: model.restore_cache_from_hidden(hidden))
    bit_exact = fast_cache.equals(naive_cache, atol=0.0)

    # Storage-integrated chunk-streamed restore through the full engine.
    manager = StorageManager(build_storage_array(platform_preset("default")))
    engine = HCacheEngine(model, manager)
    engine.register_context("bench")
    block = 160
    for start in range(0, n_tokens, block):
        stop = min(start + block, n_tokens)
        engine.save_states(
            "bench", [h[start:stop] for h in hidden], tokens[start:stop]
        )
    engine.seal("bench")
    restored, engine_s = best_of(lambda: engine.restore("bench"))
    bit_exact = bit_exact and restored.equals(fast_cache, atol=0.0)

    # Per-stage breakdown of the streamed restore (a separate timed run
    # so the stage probes never inflate ``engine_restore_s``).
    breakdown = RestoreBreakdown()
    engine.restore("bench", stats=breakdown)
    proj = breakdown.projection
    projection_s = proj.total_s
    stages = {
        "read_s": breakdown.read_s,
        "norm_s": proj.norm_s,
        "gemm_s": proj.gemm_s,
        "rope_s": proj.rope_s,
        "granules": breakdown.granules,
        "device_reads": breakdown.device_reads,
        "elementwise_share": (proj.elementwise_s / projection_s) if projection_s else 0.0,
        "modelled_io_s": breakdown.modelled_io_s,
        "modelled_serial_s": breakdown.modelled_serial_s,
        "modelled_pipelined_s": breakdown.modelled_pipelined_s,
    }

    # The default scheme never puts layer 0 on a device: stored bytes,
    # chunk reads and the restored bits, against the all-stored engine.
    all_stored = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        scheme=PartitionScheme.pure_hcache(cfg.n_layers),
    )
    all_stored.register_context("bench")
    all_stored.save_states("bench", hidden, tokens)
    all_stored.seal("bench")
    stored_layers = cfg.n_layers - 1
    token_sourced = {
        "device_bytes_per_token": manager.array.total_used_bytes / n_tokens,
        "expected_bytes_per_token": stored_layers * cfg.hidden_size * 4,  # fp32 rows
        "layer0_rows_stored": manager.tokens_stored("bench", 0),
        "device_reads": breakdown.device_reads,
        "expected_device_reads": stored_layers * -(-n_tokens // manager.tokens_per_chunk),
        "matches_all_stored": bool(restored.equals(all_stored.restore("bench"), atol=0.0)),
    }
    token_sourced["met"] = bool(
        token_sourced["device_bytes_per_token"] == token_sourced["expected_bytes_per_token"]
        and token_sourced["layer0_rows_stored"] == 0
        and token_sourced["device_reads"] == token_sourced["expected_device_reads"]
        and token_sourced["matches_all_stored"]
    )

    # Threaded executor vs single-threaded, both under device latency
    # emulation: modelled IO seconds become real (GIL-releasing) sleeps,
    # so the background workers' reads genuinely overlap the main
    # thread's projections and the comparison is wall clock on any host.
    # The state is re-saved onto the bandwidth-balanced array so the
    # bench model sits in the IO_H ~ C_H regime (see BALANCED_BENCH_SSD).
    balanced_array = StorageArray([BALANCED_BENCH_SSD], link_bandwidth=32 * GB)
    balanced_manager = StorageManager(balanced_array)
    balanced_engine = HCacheEngine(model, balanced_manager)
    balanced_engine.register_context("bench")
    for start in range(0, n_tokens, block):
        stop = min(start + block, n_tokens)
        balanced_engine.save_states(
            "bench", [h[start:stop] for h in hidden], tokens[start:stop]
        )
    balanced_engine.seal("bench")
    emulator = balanced_array.emulate_latency()
    try:
        # Each timed window flushes the emulator's sub-quantum remainder
        # inside itself, so every measurement pays exactly its own
        # modelled IO and no debt leaks into the next rep.
        def restore_and_flush(executor=None):
            result = balanced_engine.restore("bench", executor=executor)
            emulator.flush()
            return result

        single_emu, single_emu_s = best_of(restore_and_flush)
        with RestoreExecutor(THREADED_POOL_SIZE) as executor:
            threaded_emu, threaded_emu_s = best_of(
                lambda: restore_and_flush(executor)
            )
            threaded_stats = RestoreBreakdown()
            balanced_engine.restore("bench", stats=threaded_stats, executor=executor)
            emulator.flush()
    finally:
        balanced_array.stop_latency_emulation()
    threaded_bit_exact = threaded_emu.equals(fast_cache, atol=0.0) and single_emu.equals(
        fast_cache, atol=0.0
    )
    bit_exact = bit_exact and threaded_bit_exact
    pipelined_s = threaded_stats.modelled_pipelined_s
    threaded = {
        "pool_size": THREADED_POOL_SIZE,
        "single_emulated_s": single_emu_s,
        "threaded_emulated_s": threaded_emu_s,
        "speedup": single_emu_s / threaded_emu_s,
        "modelled_pipelined_s": pipelined_s,
        "modelled_serial_s": threaded_stats.modelled_serial_s,
        "gap_ratio": threaded_emu_s / pipelined_s if pipelined_s else float("inf"),
        "exposed_read_stall_s": threaded_stats.read_s,
        "bit_exact": bool(threaded_bit_exact),
    }

    return {
        "n_tokens": n_tokens,
        "naive_project_s": naive_s,
        "fast_project_s": fast_s,
        "speedup": naive_s / fast_s,
        "engine_restore_s": engine_s,
        "stages": stages,
        "token_sourced_layer0": token_sourced,
        "threaded": threaded,
        "bit_exact": bool(bit_exact),
    }


# ----------------------------------------------------------------------
# 5. durability: degraded failover reads + journal recovery
# ----------------------------------------------------------------------


def bench_durability(model: Transformer, n_tokens: int) -> dict:
    """Crash-safe storage paths (the PR-6 robustness surfaces).

    **Degraded reads**: the context is saved onto a 2-way replicated
    array, then ``FaultPolicy.dead()`` kills *every primary* — the
    worst-case degradation, in which each chunk read raises on the
    primary and retries on the mirror.  The degraded restore must be
    bit-exact against the healthy one and finish within
    ``DEGRADED_WALL_CEILING``x of its wall clock (the failover cost is
    an exception + retry per chunk, not a second IO path).

    **Recovery**: the same states are saved through a *journaled*
    manager, the whole in-memory stack is dropped, and
    ``StorageManager.recover`` + ``HCacheEngine.recover`` rebuild it
    from the journal directory and device chunks alone.  The recovered
    restore must be bit-exact against the pre-drop one; ``recover_s``
    (replay + chunk checksum verification + re-compaction) and the
    journal's pre-recovery log footprint are recorded.
    """
    rng = _rng()
    tokens, hidden = _synthetic_states(model, rng, n_tokens)
    block = 160

    def save_all(engine: HCacheEngine) -> None:
        engine.register_context("bench")
        for start in range(0, n_tokens, block):
            stop = min(start + block, n_tokens)
            engine.save_states(
                "bench", [h[start:stop] for h in hidden], tokens[start:stop]
            )
        engine.seal("bench")

    # -- degraded failover reads ---------------------------------------
    array = StorageArray(
        [BALANCED_BENCH_SSD, BALANCED_BENCH_SSD],
        link_bandwidth=32 * GB,
        replication=2,
    )
    engine = HCacheEngine(model, StorageManager(array))
    save_all(engine)
    healthy, healthy_s = _best_of(lambda: engine.restore("bench"))
    for i in range(len(array)):
        array.replica(i).fault_policy = FaultPolicy.dead()
    try:
        degraded, degraded_s = _best_of(lambda: engine.restore("bench"))
    finally:
        for i in range(len(array)):
            array.replica(i).fault_policy = None
    degraded_exact = degraded.equals(healthy, atol=0.0)

    # -- journal recovery ----------------------------------------------
    with tempfile.TemporaryDirectory() as journal_dir:
        journal = ManifestJournal(Path(journal_dir))
        try:
            recovery_array = build_storage_array(platform_preset("default"))
            victim = HCacheEngine(
                model, StorageManager(recovery_array, journal=journal)
            )
            save_all(victim)
            before = victim.restore("bench")
            journal_bytes = journal.journal_bytes
            del victim  # the "crash": devices + journal are all that survive
            t0 = time.perf_counter()
            recovered = HCacheEngine.recover(
                model, StorageManager.recover(recovery_array, journal)
            )
            recover_s = time.perf_counter() - t0
            after, recovered_restore_s = _best_of(lambda: recovered.restore("bench"))
        finally:
            journal.close()
    recovery_exact = after.equals(before, atol=0.0)

    return {
        "n_tokens": n_tokens,
        "degraded": {
            "healthy_restore_s": healthy_s,
            "degraded_restore_s": degraded_s,
            "wall_ratio": degraded_s / healthy_s,
            "degraded_reads": array.degraded_reads,
            "bit_exact": bool(degraded_exact),
        },
        "recovery": {
            "journal_bytes": journal_bytes,
            "recover_s": recover_s,
            "recovered_restore_s": recovered_restore_s,
            "bit_exact": bool(recovery_exact),
        },
    }


# ----------------------------------------------------------------------
# 6. block-paged prefix sharing
# ----------------------------------------------------------------------


def bench_block_sharing(model: Transformer, n_tokens: int) -> dict:
    """Dedup + restore savings of the block-paged shared-prefix store.

    ``SHARING_SESSIONS`` sessions share one system prompt (half the
    context, floored to the pool block size); their private suffixes take
    ShareGPT-style first-round lengths.  The cohort is saved twice — once
    through an engine with a shared :class:`BlockStateStore`, once fully
    private — and three surfaces are measured:

    - **dedup**: logical vs physical pool blocks.  The ratio must exceed
      1 (the shared prompt's blocks are physically stored once) and the
      DRAM bytes the dedup saves are recorded.
    - **tracked restore**: every pool-served restore must be bit-exact
      against the private engine's and issue zero device chunk reads.
    - **admission restore**: a second engine over the *same* storage
      with an empty pool.  Its first restore streams from storage and
      publishes the pool; the next session admits the committed prefix
      and must read strictly fewer chunks than the private path — the
      skipped reads are the restore bytes the sharing saves.  Admitted
      prefixes are served on the storage stream's granule grid (restore
      bit-exactness is chunk-partition-sensitive), so the read-saving
      gate applies only once the prompt spans at least one granule.
    """
    cfg = BENCH_CONFIG
    rng = _rng()
    prompt_tokens = n_tokens // 2 // SHARING_BLOCK_TOKENS * SHARING_BLOCK_TOKENS
    suffix_lens = []
    for conv in ShareGPTGenerator(seed=9).sample_many(SHARING_SESSIONS):
        first = conv.rounds[0]
        suffix_lens.append(
            int(
                np.clip(
                    first.input_tokens + first.output_tokens,
                    1,
                    n_tokens - prompt_tokens,
                )
            )
        )
    system_tokens, system_hidden = _synthetic_states(model, rng, prompt_tokens)

    def make_store() -> BlockStateStore:
        pool = BlockPool(
            n_layers=cfg.n_layers,
            block_tokens=SHARING_BLOCK_TOKENS,
            n_kv_heads=cfg.n_kv_heads,
            head_dim=cfg.head_dim,
            hidden_width=cfg.hidden_size,
            capacity_blocks=(SHARING_SESSIONS + 1)
            * (n_tokens // SHARING_BLOCK_TOKENS + 2),
        )
        return BlockStateStore(pool)

    store = make_store()
    shared = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        shared_store=store,
    )
    private = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default")))
    )
    block = 160
    for index, suffix_len in enumerate(suffix_lens):
        context_id = f"share-{index}"
        suffix_tokens, suffix_hidden = _synthetic_states(model, rng, suffix_len)
        tokens = np.concatenate([system_tokens, suffix_tokens])
        hidden = [
            np.concatenate([system_hidden[layer], suffix_hidden[layer]])
            for layer in range(cfg.n_layers)
        ]
        for engine in (shared, private):
            engine.register_context(context_id)
            for start in range(0, len(tokens), block):
                stop = min(start + block, len(tokens))
                engine.save_states(
                    context_id, [h[start:stop] for h in hidden], tokens[start:stop]
                )
            engine.seal(context_id)

    # Tracked restores: the sessions saved through the shared engine are
    # fully pool-resident, so their restores never touch a device.
    tracked_exact = True
    tracked_reads = 0
    private_reads = 0
    for index in range(SHARING_SESSIONS):
        context_id = f"share-{index}"
        stats = RestoreBreakdown()
        restored = shared.restore(context_id, stats=stats)
        baseline_stats = RestoreBreakdown()
        baseline = private.restore(context_id, stats=baseline_stats)
        tracked_exact = tracked_exact and restored.equals(baseline, atol=0.0)
        tracked_reads += stats.device_reads
        private_reads += baseline_stats.device_reads
    pool_cache, pool_restore_s = _best_of(lambda: shared.restore("share-0"))
    stream_cache, stream_restore_s = _best_of(lambda: private.restore("share-0"))
    tracked_exact = tracked_exact and pool_cache.equals(stream_cache, atol=0.0)

    # Admission: an engine adopting the same storage with an empty pool.
    # The seed restore streams and publishes; the next session admits the
    # committed system prompt and reads only its suffix (granule-floored).
    granule = shared.stream_granule_chunks * CHUNK_TOKENS
    admitted_engine = HCacheEngine.recover(
        model, shared.storage, shared_store=make_store()
    )
    seed_stats = RestoreBreakdown()
    seed_exact = admitted_engine.restore("share-0", stats=seed_stats).equals(
        private.restore("share-0"), atol=0.0
    )
    admit_stats = RestoreBreakdown()
    admitted_exact = admitted_engine.restore("share-1", stats=admit_stats).equals(
        private.restore("share-1"), atol=0.0
    )
    baseline_stats = RestoreBreakdown()
    private.restore("share-1", stats=baseline_stats)
    reads_saved = baseline_stats.device_reads - admit_stats.device_reads
    chunk_bytes = CHUNK_TOKENS * cfg.hidden_size * np.dtype(np.float32).itemsize
    store.debug_validate()

    return {
        "n_tokens": n_tokens,
        "sessions": SHARING_SESSIONS,
        "block_tokens": SHARING_BLOCK_TOKENS,
        "system_prompt_tokens": prompt_tokens,
        "suffix_tokens": suffix_lens,
        "logical_blocks": store.logical_blocks,
        "physical_blocks": store.physical_blocks,
        "dedup_ratio": store.dedup_ratio(),
        "state_bytes_saved": store.state_bytes_saved(),
        "tracked": {
            "pool_restore_s": pool_restore_s,
            "stream_restore_s": stream_restore_s,
            "device_reads": tracked_reads,
            "private_device_reads": private_reads,
            "bit_exact": bool(tracked_exact),
        },
        "admission": {
            "gate_applies": bool(prompt_tokens >= granule),
            "seed_device_reads": seed_stats.device_reads,
            "admitted_device_reads": admit_stats.device_reads,
            "private_device_reads": baseline_stats.device_reads,
            "reads_saved": reads_saved,
            "restore_bytes_saved": reads_saved * chunk_bytes,
            "shared_tokens": admit_stats.shared_tokens,
            "bit_exact": bool(seed_exact and admitted_exact),
        },
    }


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def bench_serving_frontend(model: Transformer) -> dict:
    """The PR-10 front end vs the serial per-session serving loop.

    Both sides serve the same workload: ``FRONTEND_SESSIONS`` sessions
    that already hold one round of history, evicted from GPU, each
    submitting a second round (restore burst + prefill + decode).  The
    serial baseline is a ``chat_round`` loop (per-session restore, then
    per-session prefill, one batched model call per *session* per
    token); the front end serves the same round through submit/step —
    FCFS admission under a KV budget, SplitFuse chunking, and ONE fused
    model call per iteration.  The SLO for the goodput sweep is the
    serial path's p99 round-completion latency: a fixed target the
    serial loop itself just met, so "goodput at the serial SLO" measures
    what continuous batching buys at equal latency tolerance.

    Token streams must match the serial path exactly (the front end is
    the same value model — only the batching changed); the timing gate
    compares output tokens/s on the timed round.
    """
    rng = _rng()
    prompts = {
        f"fe{i}": rng.integers(0, BENCH_CONFIG.vocab_size, size=FRONTEND_PROMPT_TOKENS)
        for i in range(FRONTEND_SESSIONS)
    }
    second = {
        s: rng.integers(0, BENCH_CONFIG.vocab_size, size=FRONTEND_PROMPT_TOKENS)
        for s in prompts
    }
    total_out = FRONTEND_SESSIONS * FRONTEND_OUTPUT_TOKENS
    capacity = FRONTEND_SESSIONS * (
        2 * (FRONTEND_PROMPT_TOKENS + FRONTEND_OUTPUT_TOKENS)
    )

    def make_engine() -> NumericServingEngine:
        manager = StorageManager(build_storage_array(platform_preset("default")))
        return NumericServingEngine(model, HCacheEngine(model, manager))

    def seed_round_one(engine: NumericServingEngine) -> None:
        for s, p in prompts.items():
            engine.open_session(s)
            engine.chat_round(s, p, FRONTEND_OUTPUT_TOKENS)
        for s in prompts:
            engine.evict(s)

    def serial_run() -> tuple[float, dict, list[float]]:
        engine = make_engine()
        seed_round_one(engine)
        tokens: dict[str, list[int]] = {}
        completions: list[float] = []
        t0 = time.perf_counter()
        for s, p in second.items():
            tokens[s] = engine.chat_round(s, p, FRONTEND_OUTPUT_TOKENS)
            completions.append(time.perf_counter() - t0)
        return time.perf_counter() - t0, tokens, completions

    def frontend_run(slo: float) -> tuple[float, dict, ServingFrontend]:
        engine = make_engine()
        seed_round_one(engine)
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=capacity))
        t0 = time.perf_counter()
        handles = {
            s: frontend.submit(
                ServingRequest(
                    session_id=s,
                    prompt_tokens=p,
                    max_new_tokens=FRONTEND_OUTPUT_TOKENS,
                    slo_ttft_s=slo,
                )
            )
            for s, p in second.items()
        }
        frontend.run_until_idle()
        wall = time.perf_counter() - t0
        tokens = {s: list(h.result().tokens) for s, h in handles.items()}
        return wall, tokens, frontend

    serial_wall, ref_tokens, completions = serial_run()
    for _ in range(2):  # best-of-3 against scheduler noise
        wall, _, completions_rep = serial_run()
        if wall < serial_wall:
            serial_wall, completions = wall, completions_rep
    slo = float(np.percentile(completions, 99))

    frontend_wall, frontend_tokens, frontend_obj = frontend_run(slo)
    for _ in range(2):
        wall, _, candidate = frontend_run(slo)
        if wall < frontend_wall:
            frontend_wall, frontend_obj = wall, candidate
    report = frontend_obj.metrics.summarize()
    tokens_equal = frontend_tokens == ref_tokens

    serial_tok_s = total_out / serial_wall
    frontend_tok_s = total_out / frontend_wall
    speedup = frontend_tok_s / serial_tok_s

    # Goodput vs offered load: real wall-clock Poisson arrivals at
    # multiples of the measured front-end service rate, judged against
    # the serial-derived SLO.
    service_rps = FRONTEND_SESSIONS / frontend_wall
    sweep = []
    for load in FRONTEND_SWEEP_LOADS:
        offered_rps = service_rps * load
        engine = make_engine()
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=capacity))
        arrivals = poisson_arrival_times(
            offered_rps, FRONTEND_SWEEP_REQUESTS, seed=17
        )
        token_pool = rng.integers(
            0,
            BENCH_CONFIG.vocab_size,
            size=(FRONTEND_SWEEP_REQUESTS, FRONTEND_PROMPT_TOKENS),
        )
        t0 = time.perf_counter()
        submitted = 0
        while submitted < FRONTEND_SWEEP_REQUESTS or not frontend.idle:
            now = time.perf_counter() - t0
            while (
                submitted < FRONTEND_SWEEP_REQUESTS
                and arrivals[submitted] <= now
            ):
                frontend.submit(
                    ServingRequest(
                        session_id=f"load{load}-{submitted}",
                        prompt_tokens=token_pool[submitted],
                        max_new_tokens=FRONTEND_OUTPUT_TOKENS,
                        arrival_time=t0 + float(arrivals[submitted]),
                        slo_ttft_s=slo,
                    )
                )
                submitted += 1
            if not frontend.idle:
                frontend.step()
            else:
                time.sleep(1e-4)  # idle until the next arrival
        point = frontend.metrics.summarize()
        met_slo = sum(1 for r in frontend.metrics.records if r.ttft <= slo)
        sweep.append(
            {
                "offered_load": load,
                "offered_rps": offered_rps,
                "tokens_per_second": point.tokens_per_second,
                "goodput_tok_s": frontend.metrics.goodput(slo),
                "slo_attainment": met_slo / FRONTEND_SWEEP_REQUESTS,
                "p99_ttft_s": point.p99_ttft,
            }
        )

    return {
        "sessions": FRONTEND_SESSIONS,
        "prompt_tokens": FRONTEND_PROMPT_TOKENS,
        "output_tokens": FRONTEND_OUTPUT_TOKENS,
        "serial_tok_s": serial_tok_s,
        "frontend_tok_s": frontend_tok_s,
        "speedup": speedup,
        "tokens_equal": bool(tokens_equal),
        "slo_ttft_s": slo,
        "ttft_p50_s": report.p50_ttft,
        "ttft_p99_s": report.p99_ttft,
        "tpot_p50_s": report.p50_tbt,
        "tpot_p99_s": report.p99_tbt,
        "goodput_vs_load": sweep,
    }


def bench_early_release(model: Transformer) -> dict:
    """Prefill under the tail of a restore: streams, counts and final caches.

    ``EARLY_SESSIONS`` sessions serve one round through the front end
    (which also gives the engine its measured prefill-iteration time),
    are evicted, and serve a second round that must restore them — on an
    executor, over the latency-emulated IO-dominated device, with the
    engine's own release rule deciding when each joins the iteration.
    In the second round users join one at a time, each once the previous
    one has its first token, so every restore after the first streams
    under decode iterations and its prompt's prefill is co-batched with
    them.  The serial control is the ``chat_round`` loop with the same
    evictions.  Nothing here is a timing gate.
    """
    rng = _rng()
    sessions = [f"er{i}" for i in range(EARLY_SESSIONS)]
    vocab = BENCH_CONFIG.vocab_size
    first = {s: rng.integers(0, vocab, size=EARLY_HISTORY_TOKENS) for s in sessions}
    second = {s: rng.integers(0, vocab, size=EARLY_PROMPT_TOKENS) for s in sessions}

    serial = NumericServingEngine(
        model,
        HCacheEngine(model, StorageManager(build_storage_array(platform_preset("default")))),
    )
    ref_tokens = {}
    for s in sessions:
        serial.open_session(s)
        serial.chat_round(s, first[s], EARLY_OUTPUT_TOKENS)
        serial.evict(s)
    for s in sessions:
        ref_tokens[s] = serial.chat_round(s, second[s], EARLY_OUTPUT_TOKENS)

    array = StorageArray([EARLY_RELEASE_SSD], link_bandwidth=32 * GB)
    hcache = HCacheEngine(model, StorageManager(array, tokens_per_chunk=CHUNK_TOKENS))
    with RestoreExecutor(THREADED_POOL_SIZE) as executor:
        engine = NumericServingEngine(model, hcache, executor=executor)
        frontend = ServingFrontend(engine, MemoryBudget(capacity_tokens=1 << 20))

        def serve(prompts: dict, next_joins_at) -> dict:
            handles = {}
            for s, p in prompts.items():
                handles[s] = frontend.submit(
                    ServingRequest(
                        session_id=s, prompt_tokens=p, max_new_tokens=EARLY_OUTPUT_TOKENS
                    )
                )
                while not next_joins_at(handles[s]):
                    frontend.step()
            frontend.run_until_idle()
            return {s: list(h.result().tokens) for s, h in handles.items()}

        # One at a time: every prefill-carrying iteration is a whole
        # SplitFuse chunk, not a remainder squeezed in beside decodes.
        serve(first, lambda handle: handle.finished)
        restored = {}
        for s in sessions:
            engine.evict(s)
            restored[s] = hcache.restore(s)  # synchronous, inline
        array.emulate_latency()
        tokens = serve(second, lambda handle: handle.tokens())
        array.stop_latency_emulation()

        # Every session is checked, handed over early or not: the claim
        # is that it makes no difference to what a session ends up holding.
        caches_equal = True
        for s in sessions:
            cache, n = engine.session(s).kv_cache, len(restored[s])
            reference = restored[s]
            model.forward(second[s], reference)
            for token in tokens[s]:
                model.forward(np.array([token]), reference)
            for layer in range(BENCH_CONFIG.n_layers):
                for got, want in zip(cache.get(layer), reference.get(layer)):
                    caches_equal &= bool(
                        got.shape == want.shape
                        and np.array_equal(got[:n], want[:n])
                        and np.allclose(got[n:], want[n:], atol=BATCHED_DECODE_ATOL, rtol=0)
                    )
    return {
        "sessions": EARLY_SESSIONS,
        "history_tokens": EARLY_HISTORY_TOKENS + EARLY_OUTPUT_TOKENS,
        "prompt_tokens": EARLY_PROMPT_TOKENS,
        "tokens_equal": tokens == ref_tokens,
        "early_releases": engine.early_releases,
        "caches_equal": bool(caches_equal),
    }


def run(sizes: list[int], window: int) -> dict:
    model = Transformer.from_seed(BENCH_CONFIG, seed=7)
    bench_restore(model, 64)  # warmup: projection stacks, BLAS threads
    report = {
        "schema": "bench_hotpath/v9",
        "config": {
            "name": BENCH_CONFIG.name,
            "n_layers": BENCH_CONFIG.n_layers,
            "hidden_size": BENCH_CONFIG.hidden_size,
            "n_heads": BENCH_CONFIG.n_heads,
            "vocab_size": BENCH_CONFIG.vocab_size,
        },
        "sizes": sizes,
        "window": window,
        "relaxed_timing": RELAX_TIMING,
        "decode_with_capture": {},
        "decode_e2e": {},
        "decode_batched": {},
        "restore": {},
        "durability": {},
        "block_sharing": {},
        # Flat (run once): the serving front end is a request loop, not
        # a per-context microbenchmark.
        "serving_frontend": {},
        "early_release": {},
    }
    for n in sizes:
        state = bench_state_path(n, window)
        e2e = bench_decode_e2e(model, n, window)
        batched = bench_decode_batched(model, n, window)
        restore = bench_restore(model, n)
        durability = bench_durability(model, n)
        sharing = bench_block_sharing(model, n)
        report["decode_with_capture"][str(n)] = state
        report["decode_e2e"][str(n)] = e2e
        report["decode_batched"][str(n)] = batched
        report["restore"][str(n)] = restore
        report["durability"][str(n)] = durability
        report["block_sharing"][str(n)] = sharing
        stages = restore["stages"]
        threaded = restore["threaded"]
        degraded = durability["degraded"]
        recovery = durability["recovery"]
        largest_batch = batched["per_batch"][str(max(DECODE_BATCH_SIZES))]
        print(
            f"n={n:5d}  state-path {state['speedup']:7.1f}x "
            f"({state['naive_tok_s']:9.1f} -> {state['fast_tok_s']:11.1f} tok/s)  "
            f"e2e {e2e['speedup']:5.1f}x  "
            f"batched@B{largest_batch['batch']} {largest_batch['speedup']:4.2f}x "
            f"({largest_batch['serial_tok_s']:7.1f} -> "
            f"{largest_batch['batched_tok_s']:8.1f} tok/s, "
            f"equiv={largest_batch['equivalent']})  "
            f"restore {restore['speedup']:5.1f}x "
            f"(engine {restore['engine_restore_s'] * 1e3:7.2f} ms, "
            f"elementwise {stages['elementwise_share'] * 100:4.1f}%, "
            f"bit_exact={restore['bit_exact']})  "
            f"threaded {threaded['speedup']:4.2f}x vs single "
            f"({threaded['threaded_emulated_s'] * 1e3:6.2f} ms wall, "
            f"pipelined model {threaded['modelled_pipelined_s'] * 1e3:6.2f} ms, "
            f"gap {threaded['gap_ratio']:4.2f}x)  "
            f"degraded {degraded['wall_ratio']:4.2f}x of healthy "
            f"(bit_exact={degraded['bit_exact']})  "
            f"recover {recovery['recover_s'] * 1e3:6.2f} ms "
            f"({recovery['journal_bytes']} journal B, "
            f"bit_exact={recovery['bit_exact']})"
        )
        sourced = restore["token_sourced_layer0"]
        print(
            f"         layer 0 token-sourced: {sourced['device_bytes_per_token']:.0f} "
            f"device B/token (expected {sourced['expected_bytes_per_token']}), "
            f"{sourced['device_reads']} chunk reads "
            f"(expected {sourced['expected_device_reads']}), "
            f"== all-stored restore: {sourced['matches_all_stored']}"
        )
        print(
            f"         block-sharing dedup {sharing['dedup_ratio']:.2f}x "
            f"({sharing['physical_blocks']}/{sharing['logical_blocks']} blocks, "
            f"{sharing['state_bytes_saved'] / 1e6:.1f} MB pool bytes saved), "
            f"tracked pool reads {sharing['tracked']['device_reads']} "
            f"(bit_exact={sharing['tracked']['bit_exact']}), "
            f"admission saves {sharing['admission']['reads_saved']} chunk reads "
            f"(bit_exact={sharing['admission']['bit_exact']})"
        )
    frontend = bench_serving_frontend(model)
    report["serving_frontend"] = frontend
    print(
        f"serving-frontend {frontend['speedup']:4.2f}x vs serial loop "
        f"({frontend['serial_tok_s']:8.1f} -> {frontend['frontend_tok_s']:8.1f} tok/s, "
        f"tokens_equal={frontend['tokens_equal']})  "
        f"TTFT p50 {frontend['ttft_p50_s'] * 1e3:6.2f} ms "
        f"p99 {frontend['ttft_p99_s'] * 1e3:6.2f} ms  "
        f"TPOT p50 {frontend['tpot_p50_s'] * 1e3:5.2f} ms "
        f"p99 {frontend['tpot_p99_s'] * 1e3:5.2f} ms  "
        f"goodput@SLO "
        + " ".join(
            f"{point['offered_load']:.1f}x:{point['goodput_tok_s']:7.1f}"
            for point in frontend["goodput_vs_load"]
        )
    )
    early = bench_early_release(model)
    report["early_release"] = early
    print(
        f"early release: {early['early_releases']} of {early['sessions']} restores "
        f"handed over while streaming (final caches equal={early['caches_equal']}), "
        f"tokens_equal={early['tokens_equal']}"
    )
    largest = str(max(sizes))
    headline = report["decode_with_capture"][largest]["speedup"]
    # The 10x acceptance target is defined at 4k tokens; smoke runs at
    # smaller sizes only check that the harness and numerics hold up.
    target_applies = max(sizes) >= 4096
    threaded_head = report["restore"][largest]["threaded"]
    batched_gate_applies = BATCHED_GATE_TOKENS in sizes
    batched_head = report["decode_batched"][
        str(BATCHED_GATE_TOKENS) if batched_gate_applies else largest
    ]["per_batch"][str(max(DECODE_BATCH_SIZES))]
    batched_equivalent = all(
        entry["equivalent"]
        for size_report in report["decode_batched"].values()
        for entry in size_report["per_batch"].values()
    )
    durable_head = report["durability"][largest]
    durable_all_exact = all(
        entry["degraded"]["bit_exact"] and entry["recovery"]["bit_exact"]
        for entry in report["durability"].values()
    )
    sharing_head = report["block_sharing"][largest]
    sharing_min_dedup = min(
        entry["dedup_ratio"] for entry in report["block_sharing"].values()
    )
    sharing_all_exact = all(
        entry["tracked"]["bit_exact"] and entry["admission"]["bit_exact"]
        for entry in report["block_sharing"].values()
    )
    sharing_zero_reads = all(
        entry["tracked"]["device_reads"] == 0
        for entry in report["block_sharing"].values()
    )
    sharing_reads_saved = all(
        entry["admission"]["reads_saved"] > 0
        for entry in report["block_sharing"].values()
        if entry["admission"]["gate_applies"]
    )
    report["headline"] = {
        "metric": "decode_with_capture_state_path_speedup",
        "at_tokens": max(sizes),
        "speedup": headline,
        "target": 10.0 if target_applies else None,
        "met": bool(headline >= 10.0) if target_applies else None,
        "all_restores_bit_exact": bool(
            all(r["bit_exact"] for r in report["restore"].values())
        ),
        # Structural, never relaxed: N - 1 layers stored and read, and
        # the same bits as the all-stored engine, at every size.
        "layer0_token_sourced": bool(
            all(r["token_sourced_layer0"]["met"] for r in report["restore"].values())
        ),
        # Threaded-restore acceptance (defined at 4k like the 10x floor):
        # faster than the single-threaded streamed path, and wall clock
        # within the gap ceiling of the §4.1 pipelined makespan.  The
        # speedup/gap thresholds are the CHECK_RELAX_TIMING-aware ones.
        "threaded_restore": {
            "at_tokens": max(sizes),
            "speedup_vs_single": threaded_head["speedup"],
            "speedup_floor": THREADED_SPEEDUP_FLOOR if target_applies else None,
            "gap_ratio": threaded_head["gap_ratio"],
            "gap_target": THREADED_GAP_CEILING if target_applies else None,
            "met": (
                bool(
                    threaded_head["speedup"] > THREADED_SPEEDUP_FLOOR
                    and threaded_head["gap_ratio"] <= THREADED_GAP_CEILING
                )
                if target_applies
                else None
            ),
        },
        # Batched-decode acceptance: one decode_batch call over B=16
        # sessions must beat 16 serial decode steps by the speedup
        # floor at the gate context (1k tokens — see BATCHED_GATE_TOKENS),
        # and every batch size at every measured context must match the
        # serial loop within the pinned BATCHED_DECODE_ATOL (equivalence
        # is never relaxed).
        "batched_decode": {
            "at_tokens": BATCHED_GATE_TOKENS if batched_gate_applies else max(sizes),
            "batch": batched_head["batch"],
            "speedup_vs_serial": batched_head["speedup"],
            "target": BATCHED_SPEEDUP_FLOOR if batched_gate_applies else None,
            "all_equivalent": bool(batched_equivalent),
            "met": (
                bool(batched_head["speedup"] >= BATCHED_SPEEDUP_FLOOR)
                if batched_gate_applies
                else None
            ),
        },
        # Durable-restore acceptance (the crash-safety PR): degraded and
        # recovered restores bit-exact at EVERY measured size (never
        # relaxed), and the all-primaries-dead failover restore within
        # the wall ceiling of the healthy one at the largest size (the
        # ceiling is the CHECK_RELAX_TIMING-aware threshold).
        "durable_restore": {
            "at_tokens": max(sizes),
            "all_bit_exact": bool(durable_all_exact),
            "degraded_wall_ratio": durable_head["degraded"]["wall_ratio"],
            "wall_ceiling": DEGRADED_WALL_CEILING,
            "recover_s": durable_head["recovery"]["recover_s"],
            "journal_bytes": durable_head["recovery"]["journal_bytes"],
            "met": bool(
                durable_all_exact
                and durable_head["degraded"]["wall_ratio"] <= DEGRADED_WALL_CEILING
            ),
        },
        # Block-sharing acceptance (the block-paged state store): the
        # shared system prompt must be physically stored once (dedup
        # ratio > 1 at every measured size), every pool-served restore
        # bit-exact vs the private engine with zero chunk reads, and
        # admission restores must read strictly fewer chunks than the
        # private path wherever the prompt spans a stream granule.
        # Exactness and dedup are structural, never timing-relaxed.
        "block_sharing": {
            "at_tokens": max(sizes),
            "dedup_ratio": sharing_head["dedup_ratio"],
            "dedup_target": 1.0,
            "state_bytes_saved": sharing_head["state_bytes_saved"],
            "restore_bytes_saved": sharing_head["admission"]["restore_bytes_saved"],
            "all_bit_exact": bool(sharing_all_exact),
            "tracked_zero_reads": bool(sharing_zero_reads),
            "admission_reads_saved": bool(sharing_reads_saved),
            "met": bool(
                sharing_min_dedup > 1.0
                and sharing_all_exact
                and sharing_zero_reads
                and sharing_reads_saved
            ),
        },
        # Serving-frontend acceptance (the submit/step redesign): the
        # batched-continuous front end must serve the fixed-SLO second
        # round no slower than the serial chat_round loop (floor is the
        # CHECK_RELAX_TIMING-aware threshold), with token streams equal
        # to the serial path's (structural, never relaxed).
        "serving_frontend": {
            "speedup_vs_serial": frontend["speedup"],
            "speedup_floor": FRONTEND_SPEEDUP_FLOOR,
            "tokens_equal": frontend["tokens_equal"],
            "slo_ttft_s": frontend["slo_ttft_s"],
            "goodput_at_unit_load": next(
                point["goodput_tok_s"]
                for point in frontend["goodput_vs_load"]
                if point["offered_load"] == 1.0
            ),
            "met": bool(
                frontend["tokens_equal"]
                and frontend["speedup"] >= FRONTEND_SPEEDUP_FLOOR
            ),
        },
        # Early-release acceptance (prefill under the tail of the
        # restore): counts and exactness only, never relaxed.
        "early_release": {
            **early,
            "met": bool(
                early["tokens_equal"]
                and early["early_releases"] >= 1
                and early["caches_equal"]
            ),
        },
    }
    gate = (
        f"target 10x, met={report['headline']['met']}"
        if target_applies
        else "target applies at 4096 tokens"
    )
    print(
        f"headline: {headline:.1f}x decode-with-capture state path at "
        f"{largest} tokens ({gate}); threaded restore "
        f"{threaded_head['speedup']:.2f}x vs single, "
        f"{threaded_head['gap_ratio']:.2f}x of pipelined model "
        f"(met={report['headline']['threaded_restore']['met']}); "
        f"batched decode {batched_head['speedup']:.2f}x at "
        f"B{batched_head['batch']} (met={report['headline']['batched_decode']['met']}, "
        f"equivalent={batched_equivalent}); durable restore "
        f"{durable_head['degraded']['wall_ratio']:.2f}x degraded wall, recover "
        f"{durable_head['recovery']['recover_s'] * 1e3:.2f} ms "
        f"(met={report['headline']['durable_restore']['met']}); block sharing "
        f"{sharing_head['dedup_ratio']:.2f}x dedup, "
        f"{sharing_head['state_bytes_saved'] / 1e6:.1f} MB saved "
        f"(met={report['headline']['block_sharing']['met']}); serving frontend "
        f"{frontend['speedup']:.2f}x vs serial at the serial p99 SLO "
        f"(met={report['headline']['serving_frontend']['met']})"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast subset")
    parser.add_argument("--out", type=Path, default=None, help="write the report as JSON")
    args = parser.parse_args()
    if args.smoke:
        # Keep 4096 in the smoke run (it carries the >= 10x acceptance
        # gate, the threaded-restore gate, and the restore bit-exactness
        # check) and 1024 (the batched-decode gate context), so
        # scripts/check.sh catches hot-path regressions.
        sizes, window = [256, 1024, 4096], 16
    else:
        sizes, window = [256, 1024, 4096], 64
    report = run(sizes, window)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if not report["headline"]["all_restores_bit_exact"]:
        print("ERROR: restored caches are not bit-exact", file=sys.stderr)
        return 1
    if not report["headline"]["layer0_token_sourced"]:
        print(
            "ERROR: the default engine must store and read exactly N - 1 "
            "layers (none for layer 0) and restore the all-stored engine's bits: "
            + json.dumps(
                {n: r["token_sourced_layer0"] for n, r in report["restore"].items()}
            ),
            file=sys.stderr,
        )
        return 1
    if report["headline"]["met"] is False:
        print("ERROR: decode-with-capture speedup target missed", file=sys.stderr)
        return 1
    if report["headline"]["threaded_restore"]["met"] is False:
        print(
            "ERROR: threaded restore missed its gate (must beat the "
            f"single-threaded path by > {THREADED_SPEEDUP_FLOOR}x and stay "
            f"within {THREADED_GAP_CEILING}x of the pipelined makespan at "
            "4k tokens)",
            file=sys.stderr,
        )
        return 1
    if not report["headline"]["batched_decode"]["all_equivalent"]:
        print(
            "ERROR: batched decode diverged from the serial per-session "
            f"loop beyond atol={BATCHED_DECODE_ATOL}",
            file=sys.stderr,
        )
        return 1
    if report["headline"]["batched_decode"]["met"] is False:
        print(
            "ERROR: batched decode missed its gate (one decode_batch call "
            f"over {max(DECODE_BATCH_SIZES)} sessions must be >= "
            f"{BATCHED_SPEEDUP_FLOOR}x the serial loop at "
            f"{BATCHED_GATE_TOKENS} tokens)",
            file=sys.stderr,
        )
        return 1
    sharing = report["headline"]["block_sharing"]
    if not sharing["all_bit_exact"]:
        print(
            "ERROR: a pool-served shared restore diverged from the private "
            "engine's (sharing must never change a restored byte)",
            file=sys.stderr,
        )
        return 1
    if sharing["met"] is False:
        print(
            "ERROR: block-sharing gate failed (pool dedup ratio must exceed "
            "1.0 at every size, tracked restores must read zero chunks, and "
            "admission restores must read strictly fewer chunks than the "
            "private path wherever the prompt spans a stream granule)",
            file=sys.stderr,
        )
        return 1
    durable = report["headline"]["durable_restore"]
    if not durable["all_bit_exact"]:
        print(
            "ERROR: degraded-read or journal-recovered restore is not "
            "bit-exact (exactness is never relaxed)",
            file=sys.stderr,
        )
        return 1
    if durable["met"] is False:
        print(
            "ERROR: degraded-read restore exceeded its wall ceiling "
            f"(must stay <= {DEGRADED_WALL_CEILING}x of the healthy restore "
            "with every primary replica dead)",
            file=sys.stderr,
        )
        return 1
    serving = report["headline"]["serving_frontend"]
    if not serving["tokens_equal"]:
        print(
            "ERROR: front-end token streams diverged from the serial "
            "chat_round loop (the front end must be a pure scheduling "
            "change, never a value change)",
            file=sys.stderr,
        )
        return 1
    if serving["met"] is False:
        print(
            "ERROR: serving front end missed its gate (batched-continuous "
            "serving must reach >= "
            f"{FRONTEND_SPEEDUP_FLOOR}x the serial chat_round throughput "
            "at the serial p99 SLO)",
            file=sys.stderr,
        )
        return 1
    if not report["headline"]["early_release"]["met"]:
        print(
            "ERROR: early-release gate failed (streams must equal the serial "
            "loop, at least one restore must be handed over while streaming, "
            "and every session's final cache must equal a synchronous "
            "restore + serial prefill): "
            + json.dumps(report["headline"]["early_release"]),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
