"""Manifest of hot-path functions under the no-allocation contract.

These are the per-token / per-chunk code paths PR 1 and PR 2 made O(n):
one stray ``np.concatenate`` or ``.copy()`` here reintroduces the exact
O(n^2) save/decode regressions those PRs eliminated — and shows up only
as slow bench drift, never as a test failure.  The ``hot-path`` rule
(:mod:`repro.lint.rules.hot_path`) forbids the known regression-causing
allocation patterns, and clock reads (in-band timing), inside every
function listed here.

Keys are posix path suffixes (matched against the end of each analyzed
file's path, so any checkout root works); values are the qualified
function names (``Class.method`` or a module-level ``function``) the
contract covers in that module.

When a new function joins a hot path, add it here in the same PR — the
manifest is the machine-readable version of the "zero allocations on the
hot path" claim in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

HOT_PATHS: dict[str, frozenset[str]] = {
    # The one attention kernel — serial forward, prefill chunk, decode
    # token and recompute all run it: the score buffer is masked and
    # normalized in place, never copied.
    "repro/models/attention.py": frozenset({"scaled_dot_product_attention"}),
    # The packed model call (behind decode_batch, forward_fused and the
    # restore's token replay, whose entry is listed too) — its lexical
    # body includes ``run_part``, the layer stack each row part runs — +
    # the one fused restore projection kernel.
    "repro/models/transformer.py": frozenset(
        {
            "Transformer._forward_packed",
            "Transformer.replay",
            "Transformer.project_kv_chunk",
        }
    ),
    # Per-step cache writes: O(1) amortized appends, zero-copy views.
    "repro/models/kv_cache.py": frozenset(
        {
            "KVCache.append",
            "KVCache.install_view",
        }
    ),
    "repro/models/hidden_capture.py": frozenset(
        {
            "HiddenCapture.extend",
            "HiddenCapture.write",
        }
    ),
    # The fused elementwise kernels project_kv_chunk relies on, and the
    # packed call's small-batch product: it sums row-slab views of the
    # weight into one output through one scratch, allocating nothing else.
    "repro/models/tensor_ops.py": frozenset(
        {
            "rmsnorm_into",
            "layernorm_into",
            "slab_matmul",
        }
    ),
    "repro/models/rope.py": frozenset({"rope_rotate_fullwidth_into"}),
    # The token-sourced prefix on the restore path (one row chunk's replay
    # into the restore cache's views, its rows kept for the last RECOMPUTE
    # layer's projections), the drain's per-granule dispatch (project a
    # hidden granule, install a KV one), and the per-granule row count that
    # reports a layer as landed.
    "repro/core/hcache.py": frozenset(
        {
            "HCacheEngine.restore.replay",
            "HCacheEngine.restore.consume",
            "HCacheEngine.restore.landed",
        }
    ),
    # The per-layer hand-over: one landing per restored layer, one wait
    # per (layer, gated segment) inside the packed model call.
    "repro/runtime/progress.py": frozenset(
        {
            "RestoreProgress.layer_landed",
            "RestoreProgress.wait_layer",
        }
    ),
    # Storage granule loop: chunk reads land straight in staging slots.
    "repro/storage/device.py": frozenset({"StorageDevice.read_into"}),
    "repro/storage/manager.py": frozenset(
        {
            "StorageManager.append",
            "StorageManager._flush_chunk",
            "StorageManager.load_layer",
            "StorageManager.read_granule_into",
        }
    ),
}
