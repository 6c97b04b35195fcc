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

Hot-path layout: capture accumulates into a :class:`HiddenCapture`
doubling buffer (O(1) per decode step instead of an O(history)
concatenate), and every restoration — streamed, threaded, or whole-layer —
goes through the one fused granule kernel
(:meth:`Transformer.project_kv_chunk`), which writes straight into the KV
cache's backing storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import matmul as plain_matmul
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.models.attention import (
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


class RestoreWorkspace:
    """Preallocated scratch and shared RoPE tables for chunked restores.

    Built once per restoration (:meth:`Transformer.restore_workspace`);
    every chunk of every layer is then projected through the same
    buffers, so the steady state allocates nothing and the per-chunk
    working set (a few chunk-sized arrays) stays cache-resident.  The
    cos/sin tables cover the full restored position range and are sliced
    per chunk — the trigonometry is computed once, not per layer or per
    chunk.  Under RoPE the K GEMM lands in :attr:`k_tmp` and is rotated
    from there into the cache.
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
        hidden_states: When captured, one ``(n_tokens, hidden)`` array per
            layer holding the residual-stream input of that layer — the
            state HCache saves.  Views into the capture buffer when a
            :class:`HiddenCapture` accumulates across calls; the packed
            calls' own per-layer inputs (every segment's rows) from
            :meth:`Transformer.forward_fused`; ``None`` when not capturing.
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

    def restore_workspace(self, positions: np.ndarray, max_chunk_tokens: int) -> RestoreWorkspace:
        """Build the per-restore scratch for :meth:`project_kv_chunk`.

        ``positions`` are the absolute positions of every token the
        restore will cover (the RoPE tables are precomputed for all of
        them once); ``max_chunk_tokens`` bounds the largest chunk that
        will be projected through the workspace.
        """
        return RestoreWorkspace(self.config, positions, max_chunk_tokens)

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
        ``hidden_states`` are views of that buffer — the accumulation path
        ``generate`` uses to stay O(n) over a whole generation.  Plain
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

    def prefill(
        self, tokens: np.ndarray, kv_cache: KVCache | None = None, capture_hidden: bool = False
    ) -> tuple[ForwardResult, KVCache]:
        """Convenience: forward a prompt into a (new) cache."""
        cache = kv_cache if kv_cache is not None else KVCache(self.config)
        result = self.forward(tokens, cache, capture_hidden=capture_hidden)
        return result, cache

    def decode_step(
        self, token: int, kv_cache: KVCache, capture_hidden: bool = False
    ) -> ForwardResult:
        """Autoregressively process one token."""
        return self.forward(np.array([token]), kv_cache, capture_hidden=capture_hidden)

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
        self, segments: list[np.ndarray], caches: Sequence[KVCache]
    ) -> ForwardResult:
        """The one batched kernel behind both public spellings above.

        Every dense product (Q/K/V, output projection, FFN, LM head) is
        :func:`~repro.models.tensor_ops.slab_matmul`: 2–``M_MAX`` rows (a
        small decode batch, the last-row final layer) sum over row slabs
        of the weight inside BLAS's small-matrix limit; a prefill chunk
        is one call.  The serial :meth:`forward`, :meth:`project_kv` and
        :meth:`project_kv_chunk` keep plain ``matmul``, so restores stay
        bit-exact and the serial reference takes no slabs.

        Every layer's input is a fresh array no later stage writes (each
        residual add allocates), so the call keeps a reference to each
        and returns them as ``hidden_states`` instead of copying rows out.
        """
        config = self.config
        caches = list(caches)
        if not segments:
            raise ConfigError("a batched forward needs at least one segment")
        if len(caches) != len(segments):
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
        starts = [len(cache) for cache in caches]
        sizes = [seg.size for seg in segments]
        for start, size in zip(starts, sizes):
            if start + size > config.max_context:
                raise ConfigError(
                    f"context {start + size} exceeds max {config.max_context}"
                )
        # Packed row layout: segment s owns rows [bounds[s], bounds[s + 1]).
        bounds = list(accumulate(sizes, initial=0))
        # lint: disable=hot-path -- this call's new token ids: O(rows) ints, never O(history)
        hidden = self.embed(np.concatenate(segments))
        # Packed row r of segment s sits at position starts[s] + (r - bounds[s]).
        positions = np.arange(bounds[-1]) + np.repeat(
            [start - first for start, first in zip(starts, bounds)], sizes
        )
        # Layer L's input, assigned by index (the list never grows).
        inputs = [hidden] * config.n_layers
        n_rep = config.n_heads // config.n_kv_heads
        attn_out = np.empty(
            (bounds[-1], config.n_heads, config.head_dim), dtype=np.float32
        )
        # Only each segment's last row reaches lm_head, so the final
        # layer attends / projects / feeds forward those rows alone
        # (every row's K/V is still appended first).  Decode-only calls
        # are unchanged: every row is a last row.
        last = np.array(bounds[1:]) - 1
        try:
            for layer in range(config.n_layers):
                inputs[layer] = hidden
                w = self.weights.layers[layer]
                final_layer = layer == config.n_layers - 1
                # One packed projection: row r's RoPE angle comes from its own
                # absolute position, exactly what compute_qkv applies rowwise.
                q, k, v = self.compute_qkv(layer, hidden, positions, slab_matmul)
                if final_layer:
                    hidden, attn_out = hidden[last], attn_out[: len(segments)]
                for s, cache in enumerate(caches):
                    o0, o1 = bounds[s], bounds[s + 1]
                    if cache.landing is not None:
                        # A session released while its restore still streams:
                        # this layer's history must have landed before the
                        # prompt's rows go behind it (resident caches skip this).
                        cache.landing.wait_layer(layer)
                    cache.append(layer, k[o0:o1], v[o0:o1])
                    keys, values = cache.get(layer)
                    q0, out = (o1 - 1, attn_out[s : s + 1]) if final_layer else (o0, attn_out[o0:o1])
                    scaled_dot_product_attention(
                        q[q0:o1],
                        repeat_kv(keys, n_rep),
                        repeat_kv(values, n_rep),
                        query_offset=starts[s] + q0 - o0,
                        out=out,
                    )
                hidden = hidden + slab_matmul(merge_heads(attn_out), w.wo)
                normed = self._norm(hidden, w.ffn_norm)
                hidden = hidden + ffn_forward(normed, w, config.n_ffn_mats, slab_matmul)
        # lint: disable=exception-safety -- rollback, then re-raise: a call that dies at layer k must not leave every cache of the batch appended for layers < k only
        except BaseException:
            for cache, start in zip(caches, starts):
                cache.truncate(start)
            raise
        final = self._norm(hidden, self.weights.final_norm)
        return ForwardResult(
            logits=slab_matmul(final, self.weights.lm_head), hidden_states=inputs
        )

    # ------------------------------------------------------------------
    # restoration helpers
    # ------------------------------------------------------------------

    def restore_cache_from_hidden(
        self,
        hidden_states: list[np.ndarray] | np.ndarray | HiddenCapture,
        positions: np.ndarray | None = None,
    ) -> KVCache:
        """Rebuild a full KV cache from per-layer hidden states.

        ``hidden_states[L]`` must be the ``(n, hidden)`` residual input of
        layer ``L`` for the whole history (what ``capture_hidden`` returns
        and what the storage manager persists); a :class:`HiddenCapture`
        or a pre-stacked ``(n_layers, n, hidden)`` array is used as-is.
        Each layer is one granule through :meth:`project_kv_chunk`,
        projected straight into the new cache's storage.
        """
        blocks = (
            hidden_states.stacked()
            if isinstance(hidden_states, HiddenCapture)
            else hidden_states
        )
        if len(blocks) != self.config.n_layers:
            raise ConfigError(
                f"need hidden states for all {self.config.n_layers} layers, "
                f"got {len(blocks)}"
            )
        n = blocks[0].shape[0]
        pos = np.arange(n) if positions is None else np.asarray(positions)
        if self.config.rope and pos.shape != (n,):
            raise ConfigError(
                f"positions shape {pos.shape} mismatches token count {n}"
            )
        workspace = self.restore_workspace(pos, max(n, 1))
        cache = KVCache(self.config)
        for layer, block in enumerate(blocks):
            k_view, v_view = cache.install_view(layer, n)
            self.project_kv_chunk(layer, block, 0, k_view, v_view, workspace)
        return cache

    def recompute_prefix(
        self, tokens: np.ndarray, n_prefix_layers: int
    ) -> tuple[KVCache, np.ndarray]:
        """Token-recompute the first ``n_prefix_layers`` layers.

        Used by the bubble-free scheduler's recompute-complement mode: the
        prefix layers' KV comes from a partial forward pass over the
        original tokens.  Returns a cache filled for the prefix layers only
        plus the hidden states entering layer ``n_prefix_layers``.
        """
        if not 0 <= n_prefix_layers <= self.config.n_layers:
            raise ConfigError(f"prefix layer count {n_prefix_layers} out of range")
        tokens = np.asarray(tokens)
        positions = np.arange(tokens.size)
        cache = KVCache(self.config)
        cache.reserve(tokens.size)
        hidden = self.embed(tokens)
        for layer in range(n_prefix_layers):
            hidden = self.layer_forward(layer, hidden, cache, positions)
        return cache, hidden

    def generate(
        self,
        prompt: np.ndarray,
        n_new_tokens: int,
        kv_cache: KVCache | None = None,
        capture_hidden: bool = False,
    ) -> tuple[list[int], KVCache, list[np.ndarray] | None]:
        """Greedy generation, optionally capturing all hidden states.

        Returns the generated token ids, the final cache, and — when
        capturing — per-layer hidden states covering prompt plus generated
        tokens in position order (zero-copy views of one capture buffer).
        Both the cache and the capture are preallocated for the final
        length, so each decode step costs O(1) state management.
        """
        prompt = np.asarray(prompt)
        cache = kv_cache if kv_cache is not None else KVCache(self.config)
        cache.reserve(len(cache) + prompt.size + n_new_tokens)
        capture: HiddenCapture | None = None
        if capture_hidden:
            capture = HiddenCapture(self.config.n_layers, self.config.hidden_size)
            capture.reserve(prompt.size + n_new_tokens)
        result = self.forward(prompt, cache, capture=capture)
        tokens: list[int] = []
        logits = result.logits[-1]
        for _ in range(n_new_tokens):
            token = int(np.argmax(logits))
            tokens.append(token)
            step = self.forward(np.array([token]), cache, capture=capture)
            logits = step.logits[-1]
        return tokens, cache, capture.views() if capture is not None else None
