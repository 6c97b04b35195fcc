"""A numpy decoder-only transformer with hidden-state capture.

This is the executable substrate behind HCache's correctness story.  The
model runs real forward passes (prefill and decode) over a KV cache and can
*capture* the hidden states that enter each layer — exactly the tensors
HCache persists.  Its :meth:`Transformer.project_kv` method is the paper's
restoration operator (Eq. in §3.1):

    ``K_L = RoPE(W_k . norm(H_L))``,  ``V_L = W_v . norm(H_L)``

where ``H_L`` is the residual-stream input of layer ``L``.  Because the
projection replays the very computation the forward pass performed, the
restored KV cache matches the original exactly — the losslessness property
the test suite asserts.

Production runs one forward kernel, the packed call behind
:meth:`Transformer.forward_fused` (its per-layer inputs are the hidden
states the serving path saves), and one restore kernel, the fused granule
projection :meth:`Transformer.project_kv_chunk`, which writes straight
into the KV cache's backing storage.  The serial :meth:`Transformer.forward`
(one :meth:`Transformer.layer_forward` per layer, plain ``matmul``) is the
oracle both are checked against.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as wait_all
from dataclasses import dataclass
from itertools import accumulate
from operator import matmul as plain_matmul
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.models.attention import (
    QUERY_TILE,
    attention_module,
    merge_heads,
    repeat_kv,
    scaled_dot_product_attention,
    split_heads,
)
from repro.models.config import ModelConfig
from repro.models.ffn import ffn_forward
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.rope import (
    apply_rope,
    rope_rotate_fullwidth_into,
    rope_rotation_tables,
)
from repro.models.tensor_ops import (
    M_MAX,
    MatMul,
    layernorm,
    layernorm_into,
    rmsnorm,
    rmsnorm_into,
    slab_matmul,
)
from repro.models.weights import LayerWeights, ModelWeights, init_weights

#: Pinned tolerance for comparing the batched multi-session decode path
#: (:meth:`Transformer.decode_batch`) against the serial per-session
#: loop.  The two run identical per-row elementwise arithmetic (norm,
#: RoPE, residuals, softmax max/exp) but their GEMMs differ in the BLAS
#: M-blocking — an ``(B, hidden)`` projection vs B separate ``(1,
#: hidden)`` ones — the same caveat already documented for
#: decode-produced state vs batched-restore comparisons (atol=1e-5 per
#: single projection).  Over a multi-step decode the per-GEMM rounding
#: compounds through layers and the growing cache; measured drift over
#: dozens of steps stays in the 1e-6 range, so 1e-4 leaves two orders
#: of magnitude of headroom for other BLAS builds.
#:
#: Attention over a multi-token block is a BLAS stage too (the
#: query-tiled GEMM kernel of :func:`scaled_dot_product_attention`):
#: calls of the same shape are deterministic, while one prompt chunked
#: differently from the serial reference (255+1, 128+128, one block)
#: agrees within this band, exactly like the packed GEMMs.  K/V
#: *restore* is outside the band and stays bit-exact: it is a function
#: of the saved hidden states only, whichever chunking produced them.
BATCHED_DECODE_ATOL = 1e-4

#: One ``(keys, values)`` view pair per layer: the rows a replay writes.
KVViews = Sequence[tuple[np.ndarray, np.ndarray]]

#: Rows per part of a split packed call: a call of ``rows`` rows asks
#: :func:`part_count` for one part per ``PART_ROWS`` rows, at most one
#: per usable CPU.  Probed on the benchmark host (bench-mid, one BLAS
#: thread, 2 vCPUs; two-part / one-part wall time, medians of 8 calls,
#: three runs): 256 rows .56 .62 .68; 192 rows (128 + 64) .74 .76 .84;
#: 128 rows (64 + 64) .63 .90 .99; 4–19 % more CPU at every size.
#: 128 splits the 256-row SplitFuse chunks, where the gain is steady,
#: and leaves smaller calls — every decode step — whole.
PART_ROWS = 128


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """The thread-count call of the OpenBLAS numpy's wheel bundles, if any."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


def _blas_threads() -> int:
    """Threads one BLAS call may use: numpy's OpenBLAS asked in-process, else
    ``OPENBLAS_NUM_THREADS``, else one per usable CPU (OpenBLAS's default)."""
    getter = _blas_thread_getter()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "") if getter is None else getter()
    return max(1, int(threads)) if str(threads).isdigit() else _usable_cpus()


def part_count(rows: int) -> int:
    """How many parts a packed call of ``rows`` rows asks for (at least 1).

    Parts × BLAS threads stay within the usable CPUs.  The one place the
    split is decided; tests monkeypatch it to force a part count.
    """
    return max(1, min(_usable_cpus() // _blas_threads(), rows // PART_ROWS))


def _part_cuts(bounds: list[int], parts: int) -> list[int]:
    """Row boundaries ``[0, ..., rows]`` of at most ``parts`` parts of a
    packed call whose segment ``s`` owns rows ``[bounds[s], bounds[s + 1])``.

    Each cut falls on a :data:`QUERY_TILE` boundary of the segment it cuts
    (a segment boundary is one), and every part keeps more than
    :data:`M_MAX` rows; when ``parts`` parts cannot obey both, fewer do.
    Each cut is the legal row nearest an even share.
    """
    rows = bounds[-1]
    legal = [r for s0, s1 in zip(bounds, bounds[1:]) for r in range(s0, s1, QUERY_TILE) if r]
    for n in range(parts, 1, -1):
        cuts = [0]
        for i in range(1, n):
            room = [
                r for r in legal
                if r - cuts[-1] > M_MAX and rows - r >= (n - i) * (M_MAX + 1)
            ]
            if not room:
                break
            cuts.append(min(room, key=lambda r: abs(r * n - i * rows)))
        else:
            return cuts + [rows]
    return [0, rows]


def replay_chunks(rows: int, chunks: int) -> list[int]:
    """Bounds of at most ``chunks`` row chunks, cut as parts are: each replays bit-exactly."""
    return _part_cuts([0, rows], chunks)


_helpers: ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs parts 1… of split packed calls."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(
                max_workers=max(1, _usable_cpus() - 1), thread_name_prefix="forward-part"
            )
        return _helpers


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_helpers=None))


class _HandOver:
    """Per-layer hand-over between the consecutive row parts of one call.

    Part ``p`` publishes layer ``L`` once every row below its end has its
    layer-``L`` K/V in the caches — its own rows written and part
    ``p - 1`` published — which is all a causal row's attention reads.
    The first failure of any part stops every part at its next hand-over.
    """

    def __init__(self, n_parts: int) -> None:
        self._changed = threading.Condition()
        self._published = [0] * n_parts  # guarded-by: _changed
        self._error: BaseException | None = None  # guarded-by: _changed

    def __call__(self, part: int, layer: int) -> bool:
        """Wait until part ``part - 1`` has published ``layer``, then publish
        it for ``part``; ``False`` once any part has failed."""
        with self._changed:
            while part and self._published[part - 1] <= layer and self._error is None:
                self._changed.wait()
            if self._error is not None:
                return False
            self._published[part] = layer + 1
            self._changed.notify_all()
            return True

    def fail(self, error: BaseException) -> None:
        """Record the call's first failure and wake every waiting part."""
        with self._changed:
            if self._error is None:
                self._error = error
            self._changed.notify_all()

    def raise_error(self) -> None:
        """Re-raise the first failure of any part, if there was one."""
        with self._changed:
            error = self._error
        if error is not None:
            raise error


class RestoreWorkspace:
    """Preallocated scratch and shared RoPE tables for chunked restores.

    Built once per restoration, for the absolute ``positions`` it covers
    and chunks of at most ``max_chunk_tokens`` rows; every chunk of every
    layer is then projected through the same buffers, so the steady state
    allocates nothing and the per-chunk working set (a few chunk-sized
    arrays) stays cache-resident.  The cos/sin tables cover the full
    restored position range and are sliced per chunk — the trigonometry
    is computed once, not per layer or per chunk.  Under RoPE the K GEMM
    lands in :attr:`k_tmp` and is rotated from there into the cache.
    """

    def __init__(self, config: ModelConfig, positions: np.ndarray, max_chunk_tokens: int) -> None:
        if max_chunk_tokens <= 0:
            raise ConfigError("workspace needs a positive chunk capacity")
        self.config = config
        self.max_chunk_tokens = max_chunk_tokens
        self.normed = np.empty((max_chunk_tokens, config.hidden_size), dtype=np.float32)
        self.sq = (
            np.empty_like(self.normed) if config.norm == "rmsnorm" else None
        )
        if config.rope:
            positions = np.asarray(positions)
            if positions.ndim != 1:
                raise ConfigError("positions must be a 1-D array of absolute positions")
            self.rot_c, self.rot_s = rope_rotation_tables(
                positions, config.head_dim, config.n_kv_heads
            )
            self.k_tmp = np.empty(
                (max_chunk_tokens, config.n_kv_heads, config.head_dim), dtype=np.float32
            )
            self.rot_swap = np.empty_like(self.k_tmp)
        else:
            self.rot_c = self.rot_s = self.k_tmp = self.rot_swap = None


@dataclass
class ForwardResult:
    """Output of one forward pass over a block of new tokens.

    Attributes:
        logits: ``(n_tokens, vocab)`` next-token logits (``(segments,
            vocab)`` from the packed calls: each segment's last row).
        hidden_states: One ``(n_tokens, hidden)`` array per layer holding
            the residual-stream input of that layer — the state HCache
            saves.  From :meth:`Transformer.forward_fused`, the packed
            call's own per-layer inputs (every segment's rows); from the
            serial :meth:`Transformer.forward`, views of its
            :class:`HiddenCapture` when capturing and ``None`` otherwise.
    """

    logits: np.ndarray
    hidden_states: list[np.ndarray] | None = None


class Transformer:
    """Decoder-only transformer executing real numpy arithmetic."""

    def __init__(self, config: ModelConfig, weights: ModelWeights) -> None:
        if len(weights.layers) != config.n_layers:
            raise ConfigError(
                f"weights have {len(weights.layers)} layers, config wants {config.n_layers}"
            )
        self.config = config
        self.weights = weights

    @classmethod
    def from_seed(cls, config: ModelConfig, seed: int = 0) -> "Transformer":
        """Build a model with deterministic random weights."""
        return cls(config, init_weights(config, seed))

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------

    def _norm(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        if self.config.norm == "rmsnorm":
            return rmsnorm(x, weight)
        return layernorm(x, weight)

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Look up token embeddings, shape ``(n, hidden)``."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ConfigError("tokens must be a 1-D array of ids")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ConfigError("token id out of vocabulary range")
        return self.weights.embedding[tokens]

    def compute_qkv(
        self, layer: int, hidden: np.ndarray, positions: np.ndarray, matmul: MatMul = plain_matmul
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project a layer's input hidden states into rotated Q, K, V through
        ``matmul`` (plain ``@``, the arithmetic :meth:`project_kv` replays)."""
        w = self.weights.layers[layer]
        normed = self._norm(hidden, w.attn_norm)
        q, k, v = attention_module(normed, w.wq, w.wk, w.wv, self.config, matmul)
        if self.config.rope:
            q = apply_rope(q, positions)
            k = apply_rope(k, positions)
        return q, k, v

    def project_kv(
        self, layer: int, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """HCache's restoration operator: hidden states -> (K, V).

        This is the lightweight GEMM pair (plus RoPE on K) that replaces a
        full prefill when restoring layer ``layer`` — no attention, no FFN.
        """
        w = self.weights.layers[layer]
        normed = self._norm(np.asarray(hidden, dtype=np.float32), w.attn_norm)
        k = split_heads(normed @ w.wk, self.config.n_kv_heads)
        v = split_heads(normed @ w.wv, self.config.n_kv_heads)
        if self.config.rope:
            k = apply_rope(k, positions)
        return k, v

    def project_kv_chunk(
        self,
        layer: int,
        hidden_chunk: np.ndarray,
        row_start: int,
        k_dest: np.ndarray,
        v_dest: np.ndarray,
        workspace: RestoreWorkspace,
    ) -> None:
        """Fused restoration projection of one chunk of one layer.

        The single granule kernel every restore flavor runs: norm + K/V
        GEMMs + RoPE rotation over ``hidden_chunk`` (rows ``[row_start,
        row_start + m)`` of the layer's token run) in one pass, writing
        results straight into ``k_dest``/``v_dest`` — row slices of the
        KV cache's backing storage.  All intermediates live in
        ``workspace``; the elementwise stages (norm, RoPE) are the fused
        ``out=`` variants, so the chunk path performs zero allocations.
        It reads the layer's ``attn_norm`` / ``wk`` / ``wv`` — the arrays
        :meth:`project_kv` and the forward pass use — in the same
        arithmetic order as :meth:`project_kv`, keeping the result
        bit-identical to a whole-layer (or naive per-layer) projection of
        the same rows, with whatever weights the model holds now.
        """
        config = self.config
        w = self.weights.layers[layer]
        hidden_chunk = np.asarray(hidden_chunk, dtype=np.float32)
        if hidden_chunk.ndim != 2 or hidden_chunk.shape[1] != config.hidden_size:
            raise ConfigError(
                f"hidden chunk must be (m, {config.hidden_size}), got {hidden_chunk.shape}"
            )
        m = hidden_chunk.shape[0]
        if m > workspace.max_chunk_tokens:
            raise ConfigError(
                f"chunk of {m} tokens exceeds workspace capacity "
                f"{workspace.max_chunk_tokens}"
            )
        row_shape = (m, config.n_kv_heads, config.head_dim)
        if k_dest.shape != row_shape or v_dest.shape != row_shape:
            raise ConfigError(
                f"destinations must be {row_shape}, got {k_dest.shape} / {v_dest.shape}"
            )
        rows = slice(row_start, row_start + m)
        if config.rope and (row_start < 0 or rows.stop > workspace.rot_c.shape[0]):
            raise ConfigError(
                f"chunk rows [{row_start}, {rows.stop}) outside the "
                f"workspace's {workspace.rot_c.shape[0]} precomputed positions"
            )
        kv_size = config.kv_size
        normed = workspace.normed[:m]
        if config.norm == "rmsnorm":
            rmsnorm_into(hidden_chunk, w.attn_norm, normed, workspace.sq[:m])
        else:
            layernorm_into(hidden_chunk, w.attn_norm, normed)
        # Each GEMM lands directly in its destination, except K under
        # RoPE, which detours through scratch to be rotated into place.
        k_out = workspace.k_tmp[:m] if config.rope else k_dest
        np.matmul(normed, w.wk, out=k_out.reshape(m, kv_size))
        np.matmul(normed, w.wv, out=v_dest.reshape(m, kv_size))
        if config.rope:
            rope_rotate_fullwidth_into(
                k_out,
                workspace.rot_c[rows],
                workspace.rot_s[rows],
                out=k_dest,
                swap=workspace.rot_swap[:m],
            )

    def layer_forward(
        self,
        layer: int,
        hidden: np.ndarray,
        kv_cache: KVCache,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Run one transformer layer over a block of new tokens.

        Appends the block's K/V to the cache, attends over the whole cached
        history, and returns the next layer's input hidden states.
        Positions must be the contiguous range continuing the cache.
        """
        positions = np.asarray(positions)
        if kv_cache.layer_len(layer) != positions[0]:
            raise ConfigError(
                f"layer {layer}: cache has {kv_cache.layer_len(layer)} tokens but "
                f"block starts at position {positions[0]}"
            )
        w: LayerWeights = self.weights.layers[layer]
        q, k, v = self.compute_qkv(layer, hidden, positions)
        kv_cache.append(layer, k, v)
        keys, values = kv_cache.get(layer)
        n_rep = self.config.n_heads // self.config.n_kv_heads
        attn = scaled_dot_product_attention(
            q, repeat_kv(keys, n_rep), repeat_kv(values, n_rep), query_offset=int(positions[0])
        )
        hidden = hidden + merge_heads(attn) @ w.wo
        normed = self._norm(hidden, w.ffn_norm)
        return hidden + ffn_forward(normed, w, self.config.n_ffn_mats)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def forward(
        self,
        tokens: np.ndarray,
        kv_cache: KVCache,
        capture_hidden: bool = False,
        capture: HiddenCapture | None = None,
    ) -> ForwardResult:
        """Process a block of new tokens on top of the cached history.

        The block's absolute positions continue the cache: token ``i`` of
        the block sits at position ``len(kv_cache) + i``.

        When ``capture`` is given, the block's per-layer hidden states are
        written into it with O(block) slice writes and the returned
        ``hidden_states`` are views of that buffer, so one capture can
        accumulate a history over several calls.  Plain
        ``capture_hidden=True`` allocates a block-sized buffer internally.
        """
        tokens = np.asarray(tokens)
        start = len(kv_cache)
        if start + tokens.size > self.config.max_context:
            raise ConfigError(
                f"context {start + tokens.size} exceeds max {self.config.max_context}"
            )
        positions = np.arange(start, start + tokens.size)
        hidden = self.embed(tokens)
        if capture is None and capture_hidden:
            capture = HiddenCapture(self.config.n_layers, self.config.hidden_size)
            capture.reserve(tokens.size)
        block_start = capture.extend(tokens.size) if capture is not None else 0
        for layer in range(self.config.n_layers):
            if capture is not None:
                capture.write(layer, block_start, hidden)
            hidden = self.layer_forward(layer, hidden, kv_cache, positions)
        final = self._norm(hidden, self.weights.final_norm)
        logits = final @ self.weights.lm_head
        captured = (
            capture.block_views(block_start, block_start + tokens.size)
            if capture is not None
            else None
        )
        return ForwardResult(logits=logits, hidden_states=captured)

    def decode_batch(
        self,
        tokens: np.ndarray,
        caches: Sequence[KVCache],
    ) -> ForwardResult:
        """One decode step for ``B`` concurrent sessions in a single pass.

        The decode-only spelling of :meth:`forward_fused`: ``tokens[b]``
        is the next token of session ``b`` and ``caches[b]`` its KV
        cache, i.e. ``B`` segments of length one through the same packed
        kernel (same shapes, so the two spellings are bit-identical).
        The sessions may sit at different positions; each attends
        against its own cache, so batch membership is free to change
        between calls.

        Returns ``(B, vocab)`` next-token logits and row ``b`` of every
        layer's input, as in :meth:`forward_fused`.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ConfigError("tokens must be a 1-D array, one per session")
        return self._forward_packed(list(tokens[:, None]), caches)

    def forward_fused(
        self,
        segments: Sequence[np.ndarray],
        caches: Sequence[KVCache],
    ) -> ForwardResult:
        """One fused forward over variable-length segments of ``S`` sessions.

        The serving front end's iteration primitive: segment ``s`` is a
        block of new tokens (a SplitFuse prefill chunk, or a single decode
        token) continuing ``caches[s]``'s history.  All segments share the
        dense compute — embedding, per-layer norm + QKV projection, RoPE,
        output projection, FFN, and the final lm_head run as *packed* GEMMs
        over the concatenated ``sum(len(seg))`` rows — while attention runs
        per segment against its own cache, so a single model call replaces
        a serial per-session loop.
        Every segment, decode token or chunk, goes through the attention
        kernel a serial ``forward`` uses.

        Returns a :class:`ForwardResult`: ``(S, vocab)`` logits — for each
        segment, the next-token logits of its *last* row (for a chunk that
        does not complete its prompt the argmax is meaningless; the front
        end tracks which chunks do) — and ``hidden_states[L]``, the packed
        ``(rows, hidden)`` input of layer ``L``, segments in order: segment
        ``s``'s rows are the ones a serial ``forward(seg, caches[s],
        capture_hidden=True)`` would capture, so the HCache save path
        slices them from the call's own activations.  No other row's
        final-layer output is ever read, so the last layer appends every
        row's K/V but attends, projects and feeds forward only each
        segment's last row.

        **Equivalence contract:** segment ``s`` matches a serial
        ``forward(seg, caches[s])`` to within :data:`BATCHED_DECODE_ATOL`,
        not bit-exactly — elementwise stages (norm, RoPE, residuals) are
        per-row and bit-identical to the serial path, while the BLAS
        stages round differently in the last ulps: the packed GEMMs by
        their M-blocking (M=sum of segment lengths vs per-session M) and
        small-batch row slabs (see :meth:`_forward_packed`), block
        attention by how the prompt was chunked (see the constant).
        """
        return self._forward_packed([np.asarray(seg) for seg in segments], caches)

    def _forward_packed(
        self, segments: list[np.ndarray], caches: Sequence[KVCache],
        prefix: KVViews | None = None, prefix_start: int = 0,
    ) -> ForwardResult:
        """The one batched kernel behind both public spellings above and,
        given ``prefix`` (a ``(keys, values)`` view pair per layer of
        ``[0, stop)``) and no caches, :meth:`replay`: one segment from
        position ``prefix_start`` runs those layers in full into the views, with
        no last-row tail, final norm or LM head (zero-row logits).

        Every dense product is :func:`~repro.models.tensor_ops.slab_matmul`:
        2–``M_MAX`` rows (a small decode batch, the last-row final layer)
        sum over row slabs of the weight inside BLAS's small-matrix limit;
        more rows are one call.  The serial :meth:`forward` and the
        projections keep plain ``matmul`` and take no slabs.

        **Parts.**  The layer stack runs over :func:`part_count` contiguous
        row ranges of the call (``run_part``): part 0 on the calling
        thread, the others on a process-wide helper pool.  A causal row
        never attends to a later one, so part ``p`` waits per layer only
        for part ``p - 1``'s K/V rows (:class:`_HandOver`).  This thread
        sizes every cache for the whole call first; parts write only their
        own rows of those views.  A logits call's final layer writes every
        row's K/V and runs its last rows here, after the join, with the
        ``M`` an unsplit call has.  The first failure in any part stops
        the others; the call truncates every cache to its start and
        re-raises it.  A stepping call and a replay may wait for each other's
        rows, so a part no pool helper has started when part 0 ends runs here.

        **Bit-identical to one part**, whatever the CPU count: each cut
        falls on a :data:`~repro.models.attention.QUERY_TILE` boundary of
        the segment it cuts and every part has more than ``M_MAX`` rows
        (:func:`_part_cuts`), so every GEMM row and attention tile sees
        exactly the rows it sees unsplit.

        Layer ``L``'s input is ``inputs[L]`` of one ``(layers, rows,
        hidden)`` buffer the parts fill and no later stage writes, so
        ``hidden_states`` are its per-layer views, not copies.
        """
        config = self.config
        caches = list(caches)
        if not segments:
            raise ConfigError("a batched forward needs at least one segment")
        if prefix is None and len(caches) != len(segments):
            raise ConfigError(
                f"{len(segments)} segments for {len(caches)} caches; need one each"
            )
        for seg in segments:
            if seg.ndim != 1 or seg.size == 0:
                raise ConfigError("every segment must be a non-empty 1-D token array")
        if len({id(cache) for cache in caches}) != len(caches):
            raise ConfigError("the same cache cannot serve two segments")
        for cache in caches:
            if cache.config != config:
                raise ConfigError("every cache must match the transformer's config")
        starts = [len(cache) for cache in caches] or [prefix_start]
        sizes = [seg.size for seg in segments]
        for start, size in zip(starts, sizes):
            if start + size > config.max_context:
                raise ConfigError(
                    f"context {start + size} exceeds max {config.max_context}"
                )
        # Layers [0, depth) run in full; a logits call's last one writes K/V.
        depth = config.n_layers - 1 if prefix is None else len(prefix)
        # Packed row layout: segment s owns rows [bounds[s], bounds[s + 1]).
        bounds = list(accumulate(sizes, initial=0))
        rows = bounds[-1]
        inputs = np.empty((depth + 1, rows, config.hidden_size), dtype=np.float32)
        # lint: disable=hot-path -- this call's new token ids: O(rows) ints, never O(history)
        inputs[0] = self.embed(np.concatenate(segments))
        # Packed row r of segment s sits at position starts[s] + (r - bounds[s]).
        positions = np.arange(rows) + np.repeat(
            [start - first for start, first in zip(starts, bounds)], sizes
        )
        cuts = _part_cuts(bounds, part_count(rows))
        hand_over = _HandOver(len(cuts) - 1)
        n_rep = config.n_heads // config.n_kv_heads
        final_layer = config.n_layers - 1
        attn_out = np.empty((rows, config.n_heads, config.head_dim), dtype=np.float32)
        # Each segment's last row's final-layer query, left by its part.
        q_last = np.empty((len(segments), config.n_heads, config.head_dim), dtype=np.float32)

        def run_part(part: int) -> None:
            """Every layer over rows [r0, r1): write their K/V into the
            views, hand over, attend each segment's rows over ``keys[:its
            last row + 1]``, write the next layer's input rows.  At a
            logits call's final layer, stop once the K/V rows are written."""
            r0, r1 = cuts[part], cuts[part + 1]
            # (segment, first row, end row, cache row of packed row 0)
            spans = [
                (s, max(o0, r0), min(o1, r1), starts[s] - o0)
                for s, (o0, o1) in enumerate(zip(bounds, bounds[1:]))
                if o0 < r1 and r0 < o1
            ]
            try:
                for layer in range(len(views[0])):
                    w = self.weights.layers[layer]
                    x = inputs[layer, r0:r1]
                    # One packed projection: row r's RoPE angle comes from its
                    # own absolute position, what compute_qkv applies rowwise.
                    q, k, v = self.compute_qkv(layer, x, positions[r0:r1], slab_matmul)
                    for s, a, b, row in spans:
                        if caches and caches[s].landing is not None and a == bounds[s]:
                            # A session released while its restore still
                            # streams: this layer's history must have landed
                            # before the prompt's rows go behind it.  A later
                            # part of the segment attends only after the
                            # hand-over, so after this wait: one per layer.
                            caches[s].landing.wait_layer(layer)
                        keys, values = views[s][layer]
                        keys[row + a : row + b] = k[a - r0 : b - r0]
                        values[row + a : row + b] = v[a - r0 : b - r0]
                    if layer == depth:
                        for s, a, b, row in spans:
                            if b == bounds[s + 1]:
                                q_last[s] = q[b - 1 - r0]
                        return
                    if not hand_over(part, layer):
                        return
                    for s, a, b, row in spans:
                        keys, values = views[s][layer]
                        scaled_dot_product_attention(
                            q[a - r0 : b - r0],
                            repeat_kv(keys[: row + b], n_rep),
                            repeat_kv(values[: row + b], n_rep),
                            query_offset=row + a,
                            out=attn_out[a:b],
                        )
                    hidden = x + slab_matmul(merge_heads(attn_out[r0:r1]), w.wo)
                    normed = self._norm(hidden, w.ffn_norm)
                    ffn = ffn_forward(normed, w, config.n_ffn_mats, slab_matmul)
                    np.add(hidden, ffn, out=inputs[layer + 1, r0:r1])
            # lint: disable=exception-safety -- recorded, not swallowed: the caller joins every part and re-raises the first failure
            except BaseException as error:
                hand_over.fail(error)

        helpers: list[Future] = []

        def join(run_queued: bool) -> None:
            # A queued part leaves the pool; its future is done once dequeued.
            for part, helper in enumerate(helpers, 1):
                if helper.cancel() and run_queued:
                    run_part(part)
            wait_all([helper for helper in helpers if not helper.cancelled()])

        try:
            # Sized here, on the calling thread: no KVCache method runs in a part.
            views = [
                [cache.install_view(layer, start + size) for layer in range(config.n_layers)]
                for cache, start, size in zip(caches, starts, sizes)
            ] or [prefix]
            if len(cuts) > 2:
                pool = _helper_pool()
                helpers = [pool.submit(run_part, p) for p in range(1, len(cuts) - 1)]
            run_part(0)
            join(run_queued=True)
            hand_over.raise_error()
            if prefix is not None:  # a replay: no logits
                return ForwardResult(np.empty((0, config.vocab_size), np.float32), list(inputs))
            # The final layer's last rows, exactly as an unsplit call runs them.
            w = self.weights.layers[final_layer]
            attn_last = attn_out[: len(segments)]
            for s, layer_views in enumerate(views):
                keys, values = layer_views[final_layer]
                scaled_dot_product_attention(
                    q_last[s : s + 1],
                    repeat_kv(keys, n_rep),
                    repeat_kv(values, n_rep),
                    query_offset=starts[s] + sizes[s] - 1,
                    out=attn_last[s : s + 1],
                )
            hidden = inputs[final_layer][np.array(bounds[1:]) - 1]
            hidden = hidden + slab_matmul(merge_heads(attn_last), w.wo)
            normed = self._norm(hidden, w.ffn_norm)
            hidden = hidden + ffn_forward(normed, w, config.n_ffn_mats, slab_matmul)
        # lint: disable=exception-safety -- stop the parts, join them, roll back, re-raise: a call that dies at layer k must not leave every cache of the batch sized for the call
        except BaseException as error:
            hand_over.fail(error)
            join(run_queued=False)
            for cache, start in zip(caches, starts):
                cache.truncate(start)
            raise
        final = self._norm(hidden, self.weights.final_norm)
        return ForwardResult(
            logits=slab_matmul(final, self.weights.lm_head), hidden_states=list(inputs)
        )

    # ------------------------------------------------------------------
    # restoration helpers
    # ------------------------------------------------------------------

    def replay(self, tokens: np.ndarray, views: KVViews, start: int = 0) -> np.ndarray:
        """Token-replay layers ``[0, len(views))`` of history rows from
        ``start`` on (the views' earlier rows hold the history's), writing
        layer ``L``'s K/V rows into ``views[L]``; return the rows entering
        layer ``len(views)`` — with no views, the embedding gather, run by
        no forward kernel.  Otherwise the packed kernel's layer-range call,
        bit-identical to a one-segment :meth:`forward_fused` of the tokens
        in one part or many (or :func:`replay_chunks`); above ``M_MAX`` rows
        also to a serial :meth:`forward` of them, at or below within
        :data:`BATCHED_DECODE_ATOL` of it (row slabs).
        """
        if not views:
            return self.embed(tokens)
        return self._forward_packed([np.asarray(tokens)], [], views, start).hidden_states[-1]

    def recompute_prefix(
        self, tokens: np.ndarray, n_prefix_layers: int
    ) -> tuple[KVCache, np.ndarray]:
        """:meth:`replay` of the first ``n_prefix_layers`` layers into a new
        cache, filled for those layers only (no buffers without any);
        returns it and the rows entering layer ``n_prefix_layers``."""
        if not 0 <= n_prefix_layers <= self.config.n_layers:
            raise ConfigError(f"prefix layer count {n_prefix_layers} out of range")
        cache = KVCache(self.config)
        views = [cache.install_view(layer, len(tokens)) for layer in range(n_prefix_layers)]
        return cache, self.replay(tokens, views)
