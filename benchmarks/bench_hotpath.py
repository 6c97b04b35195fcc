#!/usr/bin/env python
"""Hot-path gate: the save path stays O(n), layer 0 stays off the devices,
a restore lands on the slab an eviction gave back, a long prefill
splits into row parts without moving a bit, and a burst of restores
drains one at a time in start order.

Three checks at 256 / 1k / 4k context tokens and three on bench-mid
calls, each one that no serving-benchmark metric makes:

1. **decode-with-capture state path** — the per-token state-management
   cost of a decode step that keeps its K/V and persists its hidden
   states, written the way the packed kernel and the save path write
   them: per layer, ``KVCache.install_view`` to the new length, one K/V
   row write into the views, and ``StorageManager.append`` of the hidden
   row; against the pre-refactor baseline (:mod:`repro.models.reference`:
   two ``np.concatenate`` per layer for the cache, one for the captured
   hidden history, plus per-row staging copies).  The naive path is
   quadratic, so the gap grows with the history: the fast path must be
   at least :data:`STATE_PATH_FLOOR` times faster at 4k tokens.
2. **token-sourced layer 0** — exact counts, no timing: the default
   engine's devices hold ``(N - 1) * hidden * 4`` bytes per saved token
   (no layer-0 rows), a restore issues ``(N - 1) * ceil(n / 64)`` device
   chunk reads, and it restores the same bits as the all-stored
   (``pure_hcache``) engine.
3. **slab reuse** — exact counts, no timing: through the numeric
   serving engine, the default engine's first restore of an evicted
   context allocates exactly one K/V slab pair (the token-sourced layer 0
   builds no cache of its own), and once the session is evicted the
   second restore allocates none — it lands on the slab the eviction
   gave back to the engine's arena.
4. **prefill parts** — exact counts and bits: one bench-mid 256-row
   packed call runs in exactly ``min(usable CPUs // BLAS threads, 2)``
   row parts (``Transformer._forward_packed``; one per ``PART_ROWS``
   rows, parts × BLAS threads at most the CPUs), and its logits, hidden
   states and K/V are bit-identical to the same call forced into one
   part.  The wall-clock ratio of the two is printed, not gated, and so
   is the cold ratio: the first split call (the process's first, which
   starts the helper pool) against the warm split median.
5. **token replay** — exact counts and bits: a bench-mid restore of
   ``REPLAY_TOKENS`` tokens under a ``REPLAY_PREFIX``-layer recompute
   prefix replays its first layers in row chunks, one packed call each
   in ``part_count(chunk rows)`` parts (``Transformer.replay``), calls
   ``layer_forward`` zero times, and restores the K/V of a serial
   ``forward`` over a fresh cache bit for bit.  The replay's wall clock is
   printed, not gated.
6. **restore burst** — exact counts and bits: ``BURST_RESTORES``
   bench-mid restores of ``BURST_TOKENS`` tokens each, started at once
   through ``RestoreExecutor.restore_contexts_async`` on one emulated
   0.1 GB/s device, complete in start order, run on exactly one driver
   thread, and each restores the bits of an inline restore of the same
   context.  Their mean completion and makespan are printed, not gated.

Restore, decode and serving *speed* is the serving benchmark's record
(``benchmarks/serving/``, on a model where BLAS sets the time); restore
exactness in every shape is ``tests/core/test_restore_matrix.py``.

Run from the repo root; it takes a few seconds, prints one line per
context size, one each for the prefill parts, the replay and the
restore burst and, last, the report as one JSON line (schema
``bench_hotpath/v18``), and exits non-zero when a check fails::

    python benchmarks/bench_hotpath.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

#: One BLAS thread, as the serving rig runs: the prefill parts are the
#: second thread, and parts over multithreaded BLAS oversubscribe the
#: cores.  Must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.hcache import HCacheEngine
from repro.core.partition import PartitionScheme
from repro.core.profiler import build_storage_array
from repro.engine.numeric_engine import NumericServingEngine
from repro.models import kv_cache as kv_cache_module
from repro.models import transformer as transformer_module
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCache
from repro.models.reference import NaiveKVCache
from repro.models.transformer import Transformer
from repro.runtime import RestoreExecutor
from repro.simulator import platform_preset
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import StorageArray
from repro.storage.manager import StorageManager

#: Small enough to run the naive quadratic path at 4k tokens in seconds,
#: big enough that its O(history) copies dominate there.
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
SIZES = (256, 1024, 4096)

#: Decode steps timed per size, after a history of ``n - WINDOW`` tokens.
WINDOW = 64

#: The O(n) guarantee: fast over naive state path at the largest size.
#: Measured 31-55x on a 2-vCPU host (2.5-3.3x at 256 tokens, 8-14x at 1k).
STATE_PATH_FLOOR = 10.0

#: The serving benchmark's model shape: big enough that BLAS, not the
#: interpreter, sets the time of a packed call.
PARTS_CONFIG = ModelConfig(
    name="bench-mid",
    n_layers=12,
    hidden_size=512,
    n_heads=8,
    n_kv_heads=8,
    ffn_hidden_size=1408,
    n_ffn_mats=3,
    vocab_size=4096,
)

#: Rows of the prefill-parts call: one SplitFuse chunk of a fresh prompt.
PREFILL_ROWS = 256

#: Timed calls per side of the prefill-parts check, alternating, after
#: ``PARTS_WARM`` untimed split calls: a fresh process's first split calls
#: run ~1.5x slower (measured 297, 306, 314 then 181, 224 ms).
PARTS_REPS = 5
PARTS_WARM = 3

#: The replay check's restore: a 3-layer recompute prefix (layers 0 and 1
#: replayed, layer 2 projected) over more than M_MAX rows, so the replay
#: equals the serial prefill bit for bit; two granules of rows, so it
#: replays in two row chunks.
REPLAY_TOKENS = 300
REPLAY_PREFIX = 3

#: The burst check: four bench-mid histories of 512 tokens, started at
#: once on one emulated device of the serving rig's bandwidth.
BURST_RESTORES = 4
BURST_TOKENS = 512
BURST_SSD = SSDSpec("burst-0.1GBps", read_bandwidth=0.1 * GB, write_bandwidth=4 * GB,
                    io_latency=20e-6)

#: Token blocks the layer-0 check saves in (not a chunk multiple, so
#: the storage tails fill and flush across saves).
SAVE_BLOCK = 160


def _rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _rows(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape).astype(np.float32)


class NaiveTailStore:
    """The pre-refactor storage tail: per-row copies into a Python list,
    ``np.stack`` to flush full chunks (the device snapshot copy included)."""

    def __init__(self, n_layers: int) -> None:
        self.tails: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self.chunks: list[list[np.ndarray]] = [[] for _ in range(n_layers)]

    def append(self, layer: int, states: np.ndarray) -> None:
        tail = self.tails[layer]
        tail.extend(np.array(row, copy=True) for row in states)
        while len(tail) >= CHUNK_TOKENS:
            rows = tail[:CHUNK_TOKENS]
            del tail[:CHUNK_TOKENS]
            self.chunks[layer].append(np.array(np.stack(rows), copy=True))


def bench_state_path(n_tokens: int) -> dict:
    """Per-token state-management cost at history length ``n_tokens``."""
    cfg = BENCH_CONFIG
    rng = _rng()
    history = n_tokens - WINDOW
    kv_shape = (cfg.n_kv_heads, cfg.head_dim)
    base_k, base_v = _rows(rng, history, *kv_shape), _rows(rng, history, *kv_shape)
    base_h = _rows(rng, history, cfg.hidden_size)
    step_k, step_v = _rows(rng, 1, *kv_shape), _rows(rng, 1, *kv_shape)
    step_h = _rows(rng, 1, cfg.hidden_size)

    naive_cache = NaiveKVCache(cfg)
    naive_store = NaiveTailStore(cfg.n_layers)
    naive_capture = []
    for layer in range(cfg.n_layers):
        naive_cache.append(layer, base_k, base_v)
        naive_capture.append(base_h.copy())
        naive_store.append(layer, base_h)
    t0 = time.perf_counter()
    for _ in range(WINDOW):
        for layer in range(cfg.n_layers):
            naive_cache.append(layer, step_k, step_v)
            naive_capture[layer] = np.concatenate([naive_capture[layer], step_h], axis=0)
            naive_store.append(layer, step_h)
    naive_s = time.perf_counter() - t0

    cache = KVCache(cfg)
    cache.reserve(n_tokens)
    manager = StorageManager(build_storage_array(platform_preset("default")))
    runs = [(layer, "hidden") for layer in range(cfg.n_layers)]
    manager.register_context(
        "bench", n_layers=cfg.n_layers, hidden_width=cfg.hidden_size, runs=runs
    )
    for layer in range(cfg.n_layers):
        keys, values = cache.install_view(layer, history)
        keys[...], values[...] = base_k, base_v
        manager.append("bench", layer, base_h)
    t0 = time.perf_counter()
    for n in range(history, n_tokens):
        for layer in range(cfg.n_layers):
            keys, values = cache.install_view(layer, n + 1)
            keys[n], values[n] = step_k[0], step_v[0]
            manager.append("bench", layer, step_h)
    fast_s = time.perf_counter() - t0

    return {
        "naive_tok_s": WINDOW / naive_s,
        "fast_tok_s": WINDOW / fast_s,
        "speedup": naive_s / fast_s,
    }


def saved_engine(
    model: Transformer, n_tokens: int, scheme: PartitionScheme | None = None
) -> HCacheEngine:
    """An engine holding one sealed ``n_tokens`` context, ``"bench"``."""
    cfg = model.config
    rng = _rng()
    tokens = rng.integers(0, cfg.vocab_size, size=n_tokens)
    # Layer 0 is the tokens' embeddings, as a real capture records it.
    hidden = [model.embed(tokens)] + [
        _rows(rng, n_tokens, cfg.hidden_size) for _ in range(cfg.n_layers - 1)
    ]
    engine = HCacheEngine(
        model, StorageManager(build_storage_array(platform_preset("default"))), scheme=scheme
    )
    engine.register_context("bench")
    for start in range(0, n_tokens, SAVE_BLOCK):
        stop = start + SAVE_BLOCK
        engine.save_states("bench", [h[start:stop] for h in hidden], tokens[start:stop])
    engine.seal("bench")
    return engine


def check_layer0(model: Transformer, n_tokens: int) -> dict:
    """Stored bytes, chunk reads and restored bits of the default engine."""
    cfg = model.config
    engine = saved_engine(model, n_tokens)
    devices = engine.storage.array.devices
    reads_before = sum(device.op_counts[0] for device in devices)
    restored = engine.restore("bench")
    stored_layers = cfg.n_layers - 1
    report = {
        "device_bytes_per_token": engine.storage.array.total_used_bytes / n_tokens,
        "expected_bytes_per_token": stored_layers * cfg.hidden_size * 4,  # fp32 rows
        "layer0_rows_stored": engine.storage.tokens_stored("bench", 0),
        "device_reads": sum(device.op_counts[0] for device in devices) - reads_before,
        "expected_device_reads": stored_layers * -(-n_tokens // CHUNK_TOKENS),
        "matches_all_stored": bool(
            restored.equals(
                saved_engine(model, n_tokens, PartitionScheme.pure_hcache(cfg.n_layers))
                .restore("bench"),
                atol=0.0,
            )
        ),
    }
    report["met"] = (
        report["device_bytes_per_token"] == report["expected_bytes_per_token"]
        and report["layer0_rows_stored"] == 0
        and report["device_reads"] == report["expected_device_reads"]
        and report["matches_all_stored"]
    )
    return report


def check_slab_reuse(model: Transformer, n_tokens: int) -> dict:
    """K/V slab pairs allocated by a cold and by a warm default restore."""
    engine = NumericServingEngine.recover(model, saved_engine(model, n_tokens))
    allocated: list[tuple[int, ...]] = []
    real = kv_cache_module._slab_pair

    def counted(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        allocated.append(shape)
        return real(shape)

    def restore() -> int:
        before = len(allocated)
        engine.start_restores({"bench": n_tokens + 1}, background=False)
        engine.finished_restores()
        return len(allocated) - before

    kv_cache_module._slab_pair = counted
    try:
        cold = restore()
        engine.evict("bench")
        warm = restore()
    finally:
        kv_cache_module._slab_pair = real
    return {"cold_allocations": cold, "warm_allocations": warm, "met": (cold, warm) == (1, 0)}


def check_prefill_parts(model: Transformer) -> dict:
    """Parts and bits of one bench-mid prefill chunk, split as shipped,
    against the same call forced into one part; and their wall clocks."""
    cfg = model.config
    prompt = _rng().integers(0, cfg.vocab_size, size=PREFILL_ROWS)
    cpus, blas_threads = transformer_module._usable_cpus(), transformer_module._blas_threads()
    parts: list[int] = []
    compute_qkv = model.compute_qkv

    def counted(layer: int, hidden: np.ndarray, *args):
        if layer == 0:  # each part projects its own rows once per layer
            parts.append(hidden.shape[0])
        return compute_qkv(layer, hidden, *args)

    def timed(one_part: bool) -> tuple[float, object, KVCache]:
        cache = KVCache(cfg)
        real = transformer_module.part_count
        if one_part:
            transformer_module.part_count = lambda rows: 1
        try:
            t0 = time.perf_counter()
            result = model.forward_fused([prompt], [cache])
            return time.perf_counter() - t0, result, cache
        finally:
            transformer_module.part_count = real

    model.compute_qkv = counted
    first_split_s, split, split_cache = timed(one_part=False)
    n_parts = len(parts)
    del model.compute_qkv
    _, whole, whole_cache = timed(one_part=True)
    for _ in range(PARTS_WARM):
        timed(one_part=False)
    split_s, whole_s = [], []
    for _ in range(PARTS_REPS):
        split_s.append(timed(one_part=False)[0])
        whole_s.append(timed(one_part=True)[0])
    report = {
        "rows": PREFILL_ROWS,
        "usable_cpus": cpus,
        "blas_threads": blas_threads,
        "parts": n_parts,
        "part_rows": sorted(parts),
        "expected_parts": max(1, min(cpus // blas_threads, 2)),
        "bit_identical": bool(
            np.array_equal(split.logits, whole.logits)
            and all(
                np.array_equal(a, b) for a, b in zip(split.hidden_states, whole.hidden_states)
            )
            and split_cache.equals(whole_cache, atol=0.0)
        ),
        "split_ms": statistics.median(split_s) * 1e3,
        "one_part_ms": statistics.median(whole_s) * 1e3,
        "first_split_ms": first_split_s * 1e3,
    }
    report["wall_ratio"] = report["split_ms"] / report["one_part_ms"]
    report["cold_ratio"] = report["first_split_ms"] / report["split_ms"]
    report["met"] = report["parts"] == report["expected_parts"] and report["bit_identical"]
    return report


def check_replay(model: Transformer) -> dict:
    """Kernel calls, parts and bits of one bench-mid restore whose first
    layers are replayed from tokens; and the replay's wall clock."""
    cfg = model.config
    tokens = _rng().integers(0, cfg.vocab_size, size=REPLAY_TOKENS)
    oracle = KVCache(cfg)
    prefilled = model.forward(tokens, oracle, capture_hidden=True)
    engine = HCacheEngine(
        model,
        StorageManager(build_storage_array(platform_preset("default"))),
        scheme=PartitionScheme.with_recompute_prefix(cfg.n_layers, REPLAY_PREFIX),
    )
    engine.register_context("bench")
    engine.save_states("bench", prefilled.hidden_states, tokens)
    engine.seal("bench")
    calls = {"packed": 0, "layer_forward": 0}
    parts: list[int] = []
    chunks: list[int] = []
    replay_s: list[float] = []
    real = {
        "packed": model._forward_packed,
        "layer_forward": Transformer.layer_forward,
        "compute_qkv": model.compute_qkv,
        "replay": model.replay,
    }

    def counting(name: str):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)

        return counted

    def compute_qkv(layer: int, hidden: np.ndarray, *args):
        if layer == 0:  # each part projects its own rows once per layer
            parts.append(hidden.shape[0])
        return real["compute_qkv"](layer, hidden, *args)

    def replay(tokens: np.ndarray, *args, **kwargs):
        chunks.append(len(tokens))
        t0 = time.perf_counter()
        try:
            return real["replay"](tokens, *args, **kwargs)
        finally:
            replay_s.append(time.perf_counter() - t0)

    model._forward_packed, model.compute_qkv, model.replay = counting("packed"), compute_qkv, replay
    Transformer.layer_forward = counting("layer_forward")
    try:
        restored = engine.restore("bench")
    finally:
        del model._forward_packed, model.compute_qkv, model.replay
        Transformer.layer_forward = real["layer_forward"]
    report = {
        "tokens": REPLAY_TOKENS,
        "replayed_layers": REPLAY_PREFIX - 1,
        "chunks": chunks,
        "packed_calls": calls["packed"],
        "parts": len(parts),
        "expected_parts": sum(transformer_module.part_count(rows) for rows in chunks),
        "layer_forward_calls": calls["layer_forward"],
        "bit_identical": bool(restored.equals(oracle, atol=0.0)),
        "replay_ms": sum(replay_s) * 1e3 if replay_s else float("nan"),
    }
    report["met"] = (
        sum(chunks) == REPLAY_TOKENS
        and report["packed_calls"] == len(chunks) > 1
        and report["parts"] == report["expected_parts"]
        and report["layer_forward_calls"] == 0
        and report["bit_identical"]
    )
    return report


def check_restore_burst(model: Transformer) -> dict:
    """Order, driver threads and bits of a burst of bench-mid restores
    started at once through ``restore_contexts_async``; and their wall
    clocks."""
    cfg = model.config
    array = StorageArray([BURST_SSD], link_bandwidth=32 * GB)
    engine = HCacheEngine(model, StorageManager(array))
    ids = [f"burst{i}" for i in range(BURST_RESTORES)]
    rng = _rng()
    for cid in ids:
        tokens = rng.integers(0, cfg.vocab_size, size=BURST_TOKENS)
        hidden = [model.embed(tokens)] + [
            _rows(rng, BURST_TOKENS, cfg.hidden_size) for _ in range(cfg.n_layers - 1)
        ]
        engine.register_context(cid)
        engine.save_states(cid, hidden, tokens)
        engine.seal(cid)
    # The oracle restores inline, before the device is slowed down.
    sequential = {cid: engine.restore(cid) for cid in ids}
    array.emulate_latency()
    drivers: list[str] = []
    real_restore = engine.restore

    def named_restore(*args, **kwargs):
        drivers.append(threading.current_thread().name)
        return real_restore(*args, **kwargs)

    engine.restore = named_restore
    completed: list[tuple[str, float]] = []
    with RestoreExecutor(1) as executor:
        t0 = time.perf_counter()
        futures = executor.restore_contexts_async(engine, ids)
        for cid, future in futures.items():
            future.add_done_callback(
                lambda _, cid=cid: completed.append((cid, time.perf_counter() - t0))
            )
        restored = {cid: future.result() for cid, future in futures.items()}
    del engine.restore
    report = {
        "restores": BURST_RESTORES,
        "tokens": BURST_TOKENS,
        "completion_order": [cid for cid, _ in completed],
        "in_start_order": [cid for cid, _ in completed] == ids,
        "driver_threads": len(set(drivers)),
        "bit_identical": all(restored[cid].equals(sequential[cid], atol=0.0) for cid in ids),
        "mean_completion_ms": statistics.fmean(t for _, t in completed) * 1e3,
        "makespan_ms": max(t for _, t in completed) * 1e3,
    }
    report["met"] = (
        report["in_start_order"] and report["driver_threads"] == 1 and report["bit_identical"]
    )
    return report


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    model = Transformer.from_seed(BENCH_CONFIG, seed=7)
    report: dict = {"schema": "bench_hotpath/v18", "window": WINDOW, "sizes": {}}
    for n in SIZES:
        state, layer0, slabs = bench_state_path(n), check_layer0(model, n), check_slab_reuse(model, n)
        report["sizes"][str(n)] = {"state_path": state, "layer0": layer0, "slab_reuse": slabs}
        print(
            f"n={n:5d}  state path {state['speedup']:6.1f}x "
            f"({state['naive_tok_s']:9.1f} -> {state['fast_tok_s']:10.1f} tok/s)  "
            f"layer 0: {layer0['device_bytes_per_token']:.0f} B/token "
            f"(expected {layer0['expected_bytes_per_token']}), "
            f"{layer0['device_reads']} chunk reads "
            f"(expected {layer0['expected_device_reads']}), "
            f"== all-stored: {layer0['matches_all_stored']}  "
            f"slabs allocated: {slabs['cold_allocations']} cold, "
            f"{slabs['warm_allocations']} warm"
        )
    headline = report["sizes"][str(max(SIZES))]["state_path"]["speedup"]
    report["state_path_floor_met"] = headline >= STATE_PATH_FLOOR
    report["layer0_met"] = all(size["layer0"]["met"] for size in report["sizes"].values())
    report["slab_reuse_met"] = all(
        size["slab_reuse"]["met"] for size in report["sizes"].values()
    )
    mid = Transformer.from_seed(PARTS_CONFIG, seed=0)
    parts = check_prefill_parts(mid)
    report["prefill_parts"] = parts
    report["prefill_parts_met"] = parts["met"]
    print(
        f"prefill parts: {parts['rows']} rows in {parts['parts']} parts "
        f"(expected {parts['expected_parts']} on {parts['usable_cpus']} CPUs, "
        f"{parts['blas_threads']} BLAS threads), "
        f"== one part: {parts['bit_identical']}  "
        f"{parts['split_ms']:.0f} vs {parts['one_part_ms']:.0f} ms one part "
        f"({parts['wall_ratio']:.2f}x, not gated); first split call "
        f"{parts['first_split_ms']:.0f} ms ({parts['cold_ratio']:.2f}x warm, not gated)"
    )
    replay = check_replay(mid)
    report["replay"] = replay
    report["replay_met"] = replay["met"]
    print(
        f"token replay: {replay['replayed_layers']} layers of {replay['tokens']} tokens in "
        f"chunks of {replay['chunks']} rows, {replay['packed_calls']} packed calls, "
        f"{replay['parts']} parts "
        f"(expected {replay['expected_parts']}), layer_forward x{replay['layer_forward_calls']}, "
        f"== serial prefill: {replay['bit_identical']}  "
        f"{replay['replay_ms']:.0f} ms (not gated)"
    )
    burst = check_restore_burst(mid)
    report["restore_burst"] = burst
    report["restore_burst_met"] = burst["met"]
    print(
        f"restore burst: {burst['restores']} x {burst['tokens']} tokens, completed "
        f"{'in' if burst['in_start_order'] else 'NOT in'} start order on "
        f"{burst['driver_threads']} driver thread(s), == one by one: {burst['bit_identical']}  "
        f"mean completion {burst['mean_completion_ms']:.0f} ms, makespan "
        f"{burst['makespan_ms']:.0f} ms (not gated)"
    )
    print(json.dumps(report))
    if not report["state_path_floor_met"]:
        print(
            f"ERROR: decode-with-capture state path is {headline:.1f}x naive at "
            f"{max(SIZES)} tokens; the floor is {STATE_PATH_FLOOR:.0f}x",
            file=sys.stderr,
        )
        return 1
    if not report["layer0_met"]:
        print(
            "ERROR: the default engine must store and read exactly N - 1 layers "
            "(none for layer 0) and restore the all-stored engine's bits",
            file=sys.stderr,
        )
        return 1
    if not report["slab_reuse_met"]:
        print(
            "ERROR: a default restore must allocate one K/V slab pair cold and "
            "none once an eviction has given one back",
            file=sys.stderr,
        )
        return 1
    if not report["prefill_parts_met"]:
        print(
            f"ERROR: a {PREFILL_ROWS}-row bench-mid packed call ran in {parts['parts']} "
            f"parts (expected {parts['expected_parts']}) or its bits differ from "
            "the one-part call's",
            file=sys.stderr,
        )
        return 1
    if not report["replay_met"]:
        print(
            f"ERROR: a bench-mid r = {REPLAY_PREFIX} restore of {REPLAY_TOKENS} tokens must "
            f"replay in row chunks, one packed call each, {replay['expected_parts']} parts "
            "in all, with no layer_forward call, and restore the serial prefill's bits",
            file=sys.stderr,
        )
        return 1
    if not report["restore_burst_met"]:
        print(
            f"ERROR: a burst of {BURST_RESTORES} bench-mid restores must complete in "
            "start order on one driver thread and restore each context's bits",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
