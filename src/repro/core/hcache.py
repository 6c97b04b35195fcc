"""HCache end-to-end orchestration (§3.1, §4, Fig. 7).

:class:`HCacheEngine` is the public entry point for the *functional* side
of the reproduction: it persists a context's per-layer hidden states (and,
for scheduler-assigned layers, raw KV) into the chunked storage manager as
generation proceeds, evicts GPU state, and later restores a bit-accurate
KV cache by replaying only the K/V projections.  Which layers come back
from hidden states, raw KV or tokens is its :class:`PartitionScheme`;
the modelled timing of a scheme is
:func:`repro.core.restoration.two_stream_timing`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from repro.core.partition import LayerMethod, PartitionScheme
from repro.errors import ConfigError, RecoveryError, RestorationError, StateError
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime.executor import RestoreExecutor, drain_granules
from repro.runtime.progress import RestoreProgress
from repro.storage.manager import StorageManager
from repro.storage.streaming import LayerChunk

#: The run kind a layer method stores; RECOMPUTE layers store nothing.
_STORED_KIND = {LayerMethod.HIDDEN: "hidden", LayerMethod.KV: "kv"}

#: Element type of every stored hidden and KV row.
_STORED_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True)
class _RestorePlan:
    """What one restoration's hidden and KV drains share, resolved once."""

    context_id: str
    n_tokens: int
    cache: KVCache
    hidden_layers: list[int]
    kv_layers: list[int]
    granule_tokens: int


class HCacheEngine:
    """Saves and restores LLM contextual state via hidden states."""

    def __init__(
        self,
        transformer: Transformer,
        storage: StorageManager,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
    ) -> None:
        """Create an engine.

        Args:
            transformer: The serving model (provides the projection
                weights used for restoration).
            storage: Chunked host storage for hidden states / KV.
            scheme: Partition scheme.  By default layer 0 is a 1-layer
                RECOMPUTE prefix and every other layer HIDDEN: layer 0's
                hidden state *is* ``embedding[tokens]``, so it is never
                stored, written or read — restores project it from the
                journaled token log, bit-identically to a stored layer 0.
                ``PartitionScheme.pure_hcache`` is the explicit all-stored
                HCache-O ablation, ``PartitionScheme.pure_kv`` KV offload.
            stream_granule_chunks: Storage chunks coalesced into each
                streamed restore granule.  IO stays chunk-granular; this
                only sets how many rows each fused projection call covers.
        """
        if stream_granule_chunks <= 0:
            raise ConfigError("stream_granule_chunks must be positive")
        self.transformer = transformer
        self.storage = storage
        self.stream_granule_chunks = stream_granule_chunks
        n_layers = transformer.config.n_layers
        if scheme is None:
            scheme = PartitionScheme.with_recompute_prefix(n_layers, 1)
        elif scheme.n_layers != n_layers:
            raise ConfigError("scheme layer count mismatches the model")
        self.scheme = scheme
        self._contexts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def register_context(self, context_id: str) -> None:
        """Declare a new context before saving states for it.

        Opens every run the scheme stores, so the journal names them
        before the context's first token ids: a crash before any of its
        rows reach a device then recovers it at zero tokens, rather than
        as a token log no run can back.
        """
        if context_id in self._contexts:
            raise StateError(f"context {context_id!r} already registered")
        self.storage.register_context(
            context_id,
            n_layers=self.transformer.config.n_layers,
            hidden_width=self.transformer.config.hidden_size,
            dtype=_STORED_DTYPE,
            kv_width=2 * self.transformer.config.kv_size,
        )
        for layer, method in enumerate(self.scheme.methods):
            if method in _STORED_KIND:
                self.storage.open_run(context_id, layer, _STORED_KIND[method])
        self._contexts[context_id] = 0

    def has_context(self, context_id: str) -> bool:
        return context_id in self._contexts

    def saved_tokens(self, context_id: str) -> int:
        if context_id not in self._contexts:
            raise StateError(f"context {context_id!r} not registered")
        return self._contexts[context_id]

    def save_states(
        self,
        context_id: str,
        hidden_states: list[np.ndarray],
        tokens: np.ndarray,
        kv_cache: KVCache | None = None,
    ) -> None:
        """Persist newly generated states for a block of tokens.

        Bit-exactness contract: the bytes stored here are snapshots of the
        arrays passed in (devices copy on write), and every restore flavor
        — naive reference, whole-layer batched, chunk-streamed, threaded —
        returns HIDDEN layers projected from, and KV layers equal to,
        exactly these bytes.  Threading rules: saving is single-threaded
        and must never run concurrently with a restore *of the same
        context* (tail buffers and device key sets would race); saving one
        context while other contexts restore is fine.

        RECOMPUTE layers store nothing: their K/V comes back from the
        journaled token ids.  Under such a scheme (the default) the
        layer-0 block is checked against ``embedding[tokens]`` — one
        gather and compare in place of a device append — and a mismatch
        raises :class:`~repro.errors.ConfigError` before anything is
        journaled, instead of restoring silently different K/V later.

        Args:
            context_id: The context the block extends.
            hidden_states: Per-layer ``(n_new, hidden)`` arrays — the
                residual inputs captured during the forward pass.
            tokens: The block's token ids (needed by recompute layers and
                kept for all layers, mirroring the prompt log every serving
                system retains).
            kv_cache: Required when the scheme KV-offloads some layers;
                its trailing ``n_new`` rows for those layers are saved.
        """
        config = self.transformer.config
        if len(hidden_states) != config.n_layers:
            raise ConfigError(
                f"expected {config.n_layers} per-layer hidden states, got {len(hidden_states)}"
            )
        tokens = np.asarray(tokens)
        n_new = hidden_states[0].shape[0]
        if tokens.size != n_new:
            raise ConfigError("token block must match the hidden-state block length")
        if self.scheme.n_kv and kv_cache is None:
            raise ConfigError("scheme KV-offloads layers; a kv_cache is required to save them")
        if self.scheme.n_recompute and not np.array_equal(
            hidden_states[0], self.transformer.embed(tokens)
        ):
            # Layer 0 is not stored: a restore rebuilds it from the token
            # log, which is only right if these rows are the embeddings.
            raise ConfigError(
                "layer-0 hidden states are not embedding[tokens]; the scheme "
                "restores layer 0 from the token log"
            )
        start = self.saved_tokens(context_id)
        # Token ids are journaled ahead of the state rows: the durable log
        # then always covers the durable rows, so crash recovery can
        # truncate it to the recovered row count without inventing ids.
        self.storage.journal_tokens(context_id, tokens)
        for layer, method in enumerate(self.scheme.methods):
            if method is LayerMethod.HIDDEN:
                self.storage.append(context_id, layer, hidden_states[layer], kind="hidden")
            elif method is LayerMethod.KV:
                assert kv_cache is not None
                have = kv_cache.layer_len(layer)
                if have < start + n_new:
                    raise ConfigError(
                        f"kv_cache holds {have} tokens at layer {layer}, "
                        f"need {start + n_new}"
                    )
                # Pack only the new rows — O(block), not O(history).
                packed = kv_cache.packed_rows(layer, start, start + n_new)
                self.storage.append(context_id, layer, packed, kind="kv")
        self._contexts[context_id] = start + n_new

    def seal(self, context_id: str) -> None:
        """Flush tail chunks when a round ends and GPU state is evicted."""
        self.saved_tokens(context_id)
        self.storage.seal_context(context_id)

    def drop_context(self, context_id: str) -> None:
        """Remove a context's states entirely."""
        self.saved_tokens(context_id)
        self.storage.free_context(context_id)
        del self._contexts[context_id]

    def token_log(self, context_id: str) -> tuple[int, ...]:
        """The context's saved token ids (the prompt log), oldest first."""
        self.saved_tokens(context_id)
        return self.storage.token_log(context_id)

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self._contexts)

    @classmethod
    def recover(
        cls,
        transformer: Transformer,
        storage: StorageManager,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
    ) -> "HCacheEngine":
        """Adopt a crash-recovered storage manager's contexts.

        ``storage`` comes from :meth:`StorageManager.recover`; every
        context it holds is re-registered with this engine at its durable
        token count, ready for a normal :meth:`restore`.  The model and
        scheme must match the ones the states were saved under — shape
        mismatches (wrong model) and per-layer row counts that contradict
        the scheme's layer methods raise
        :class:`~repro.errors.RecoveryError` rather than restoring wrong
        state.  Runs the scheme does *not* read are freed on adoption —
        an all-stored layout opened under the token-sourced default gives
        up its layer-0 rows (and their device bytes) — because a run that
        stops growing would become the shortest one, and the next
        ``StorageManager.recover`` truncates a context to its shortest run.
        """
        engine = cls(transformer, storage, scheme, stream_granule_chunks)
        config = transformer.config
        unread: list[tuple[str, int, str]] = []
        for context_id in storage.context_ids():
            meta = storage.meta(context_id)
            if meta.n_layers != config.n_layers or meta.hidden_width != config.hidden_size:
                raise RecoveryError(
                    f"context {context_id!r} was saved for a "
                    f"{meta.n_layers}x{meta.hidden_width} model; this model is "
                    f"{config.n_layers}x{config.hidden_size}"
                )
            n_tokens = len(storage.token_log(context_id))
            for layer, kind in storage.runs(context_id):
                if _STORED_KIND.get(engine.scheme.methods[layer]) != kind:
                    unread.append((context_id, layer, kind))
            for layer, method in enumerate(engine.scheme.methods):
                kind = _STORED_KIND.get(method)
                if kind is None:
                    continue
                stored = storage.tokens_stored(context_id, layer, kind=kind)
                if stored != n_tokens:
                    raise RecoveryError(
                        f"context {context_id!r} layer {layer} holds {stored} "
                        f"{kind} rows but {n_tokens} tokens are durable — was it "
                        f"saved under a different partition scheme?"
                    )
            engine._contexts[context_id] = n_tokens
        # Rows this scheme never reads (an all-stored layout's layer 0
        # under a token-sourced one) would never grow again, and the next
        # recovery would cut their whole context back to them.  Freed only
        # once every context has passed the checks above.
        for run in unread:
            storage.free_run(*run)
        return engine

    # ------------------------------------------------------------------
    # restoration
    # ------------------------------------------------------------------

    def _check_stored(self, context_id: str, layers: list[int], kind: str, n_tokens: int) -> None:
        for layer in layers:
            stored = self.storage.tokens_stored(context_id, layer, kind=kind)
            if stored != n_tokens:
                raise RestorationError(
                    f"layer {layer} stores {stored} {kind} rows, expected {n_tokens}"
                )

    def restore(
        self,
        context_id: str,
        reserve_tokens: int = 0,
        *,
        executor: RestoreExecutor | None = None,
        progress: RestoreProgress | None = None,
    ) -> KVCache:
        """Rebuild the context's full KV cache, chunk-streamed (§4.1).

        Layers marked HIDDEN stream from storage as granules of a few
        chunks each and go through the fused per-chunk projection
        (:meth:`Transformer.project_kv_chunk`) straight into the cache's
        backing buffers; KV layers stream the same way and install chunk
        by chunk.  A RECOMPUTE prefix of ``r`` layers is token-sourced:
        layers ``[0, r - 1)`` are replayed from the journaled tokens and
        layer ``r - 1`` — whose input rows are all its K/V needs — goes
        through the same projection closure, workspace and granule
        partition as a HIDDEN layer, with no attention or FFN; for ``r =
        1`` (the default scheme) that is the embedding gather plus one
        projection.  This work needs no stored state, so it runs on the
        calling thread right after the drain has put its first window of
        reads in flight and hides under the IO stream (inline, or with
        nothing stored, it simply runs).  Both kinds drain through the one
        loop (:func:`repro.runtime.executor.drain_granules`), which is
        double-buffered: the next granule's device read is issued before
        the pending granule is projected, so in the modelled timeline
        layer *k*'s projection overlaps layer *k+1*'s read — compute
        starts at IO start, which is exactly what the cost-model engine's
        ``CostModelEngine.start_restores`` assumes when it books a
        restore's compute from the start of its IO job.

        With ``executor`` (a :class:`repro.runtime.RestoreExecutor`), the
        granule reads actually run on background IO workers while this
        thread projects, making the overlap real wall clock instead of
        only modelled.  Threading rules: all projection compute runs on
        the calling thread in plan order, workers only fill staging slots
        they own, and concurrent ``restore`` calls are safe for
        *distinct* contexts sharing one executor (never concurrently with
        a save of the same context).

        Bit-exactness contract: HIDDEN and KV layers come back
        bit-identical to the states that were saved — for every granule
        size and pool size, with or without an executor, and identical
        to the naive whole-layer reference path.  A 1-layer
        RECOMPUTE prefix is bit-identical to restoring a stored layer 0
        (same rows, same kernel, same granule split).  A longer one
        replays the forward pass as one block, which matches
        incrementally-decoded originals to float rounding (the same
        GEMM-blocking caveat as restoring any decode-produced state).

        ``reserve_tokens`` lets the serving engine size the cache for the
        upcoming round up front, so the restored history never has to be
        recopied by a post-restore capacity growth.  The restore keeps no
        accounting of its own: the devices count and time its reads
        (``op_counts``, ``busy_seconds``) and an executor's pool its
        submissions (``tasks_submitted``, ``dispatch_s``).

        ``progress`` (optional) makes the hand-over a *layer*, not a
        cache: it is told the planned cache before the first row is
        written, then each layer the moment its last row has been
        projected or installed — hidden drain, KV drain and token-sourced
        prefix alike, each layer exactly once.
        The stepping thread may then prefill on ``progress.step_cache``
        while later layers are still landing (see
        :mod:`repro.runtime.progress`); the cache returned here is
        untouched by that — at return it still ``.equals`` the saved
        history, with ``len(cache) == n_tokens``.
        """
        plan = self._plan_restore(context_id, reserve_tokens)
        cache, n_tokens = plan.cache, plan.n_tokens
        n_recompute = self.scheme.n_recompute
        if progress is not None:
            progress.planned(cache, n_tokens)
        rows_left = [n_tokens] * self.transformer.config.n_layers

        def landed(layer: int, rows: int) -> None:
            # Every stage that fills rows of a layer counts them here;
            # the layer is complete when its last row is in.
            rows_left[layer] -= rows
            if not rows_left[layer] and progress is not None:
                progress.layer_landed(layer)

        token_prefix: Callable[[], None] | None = None
        # (kind, layers, consume) of each stored kind.
        drains: list[tuple[str, list[int], Callable[[LayerChunk], None]]] = []
        if plan.hidden_layers or n_recompute:
            workspace = self.transformer.restore_workspace(
                np.arange(n_tokens), plan.granule_tokens
            )
            # The last RECOMPUTE layer is projected like a HIDDEN one —
            # its input rows come from the token log instead of a device.
            projected = ([n_recompute - 1] if n_recompute else []) + plan.hidden_layers
            views = {layer: cache.install_view(layer, n_tokens) for layer in projected}

            def project(layer: int, start: int, rows: np.ndarray) -> None:
                k_view, v_view = views[layer]
                stop = start + rows.shape[0]
                self.transformer.project_kv_chunk(
                    layer, rows, start, k_view[start:stop], v_view[start:stop], workspace
                )
                landed(layer, rows.shape[0])

            if n_recompute:
                token_prefix = partial(self._restore_token_prefix, plan, project, landed)
            if plan.hidden_layers:
                drains.append((
                    "hidden", plan.hidden_layers,
                    lambda chunk: project(chunk.layer, chunk.start, chunk.data),
                ))
        if plan.kv_layers:
            for layer in plan.kv_layers:
                cache.install_view(layer, n_tokens)

            def install(chunk: LayerChunk) -> None:
                cache.install_packed_rows(chunk.layer, chunk.start, chunk.data)
                landed(chunk.layer, chunk.data.shape[0])

            drains.append(("kv", plan.kv_layers, install))
        # The token-sourced prefix rides under the first drain's IO
        # stream; with nothing stored it simply runs.
        for kind, layers, consume in drains:
            drain_granules(
                self.storage, context_id, layers, kind, self.stream_granule_chunks,
                consume, executor, token_prefix,
            )
            token_prefix = None
        if token_prefix is not None:
            token_prefix()
        if len(cache) != n_tokens:
            raise RestorationError("restored cache length mismatch")
        return cache

    def _restore_token_prefix(
        self,
        plan: _RestorePlan,
        project: Callable[[int, int, np.ndarray], None],
        landed: Callable[[int, int], None],
    ) -> None:
        """Fill the RECOMPUTE layers ``[0, r)`` from the token log alone.

        Only the layers *before* the last one are replayed in full
        (:meth:`Transformer.recompute_prefix`); the last one's input rows
        are all its K/V needs — for ``r = 1`` the embedding gather alone
        — and go through ``project`` in the stored stream's granule
        partition, so the result is bit-identical to restoring those
        rows from a device (and counted as landed there; a replayed
        layer is reported through ``landed`` as it is installed).
        """
        last = self.scheme.n_recompute - 1
        tokens = np.array(self.storage.token_log(plan.context_id)[: plan.n_tokens])
        replayed, rows = self.transformer.recompute_prefix(tokens, last)
        for layer in range(last):
            plan.cache.install(layer, *replayed.get(layer))
            landed(layer, plan.n_tokens)
        for start in range(0, plan.n_tokens, plan.granule_tokens):
            project(last, start, rows[start : start + plan.granule_tokens])

    def _plan_restore(self, context_id: str, reserve_tokens: int) -> _RestorePlan:
        """Resolve, once, everything the hidden and KV drains share."""
        n_tokens = self.saved_tokens(context_id)
        if n_tokens == 0:
            raise RestorationError(f"context {context_id!r} has no saved state")
        hidden_layers = list(self.scheme.layers_with(LayerMethod.HIDDEN))
        kv_layers = list(self.scheme.layers_with(LayerMethod.KV))
        cache = KVCache(self.transformer.config)
        cache.reserve(max(n_tokens, reserve_tokens))
        self._check_stored(context_id, hidden_layers, "hidden", n_tokens)
        self._check_stored(context_id, kv_layers, "kv", n_tokens)
        return _RestorePlan(
            context_id=context_id,
            n_tokens=n_tokens,
            cache=cache,
            hidden_layers=hidden_layers,
            kv_layers=kv_layers,
            granule_tokens=min(
                n_tokens, self.stream_granule_chunks * self.storage.tokens_per_chunk
            ),
        )

    def storage_bytes_per_token(self) -> int:
        """Device bytes the active scheme stores per context token (Table 3),
        at the element size the rows are stored in."""
        config = replace(self.transformer.config, dtype_bytes=_STORED_DTYPE.itemsize)
        return self.scheme.storage_bytes_per_token(config)
