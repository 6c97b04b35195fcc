"""HCache end-to-end orchestration (§3.1, §4, Fig. 7).

:class:`HCacheEngine` is the public entry point for the *functional* side
of the reproduction: it persists a context's per-layer hidden states (and,
for scheduler-assigned layers, raw KV) into the chunked storage manager as
generation proceeds, evicts GPU state, and later restores a bit-accurate
KV cache by replaying only the K/V projections.  Which layers of a
context come back from hidden states, raw KV or tokens is its layout, a
:class:`PartitionScheme` read from the runs it stores
(:meth:`HCacheEngine.layout`); the modelled timing of a scheme is
:func:`repro.core.restoration.two_stream_timing`.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.partition import LayerMethod, PartitionScheme
from repro.errors import ConfigError, RecoveryError, RestorationError, SchedulingError, StateError
from repro.models.kv_cache import KVCache, SlabArena
from repro.models.transformer import RestoreWorkspace, Transformer, replay_chunks
from repro.runtime.executor import PlanItem, RestoreExecutor, drain_granules
from repro.runtime.progress import RestoreProgress
from repro.storage.manager import GranuleSpec, StorageManager

#: Element type of every stored hidden and KV row.
_STORED_DTYPE = np.dtype(np.float32)


def merge_granule_plans(*plans: Sequence[PlanItem]) -> list[PlanItem]:
    """Merge plans (granules, replay chunks) into one, each in proportion.

    The i-th of a plan's n granules sits at ``(i + 1/2) / n``, ties going
    to the earlier plan.  Each plan keeps its order, and over any prefix
    of the result each plan's count is within one granule of its share.
    """
    placed = sorted(
        (Fraction(2 * i + 1, 2 * len(plan)), rank, i)
        for rank, plan in enumerate(plans)
        for i in range(len(plan))
    )
    return [plans[rank][i] for _, rank, i in placed]


class HCacheEngine:
    """Saves and restores LLM contextual state via hidden states.

    A context's layout is its stored runs (:meth:`layout`); the engine's
    :attr:`scheme` only picks the runs :meth:`register_context` opens, so
    a context written under another scheme, or adopted by
    :meth:`recover`, is saved to and restored as it was written.
    """

    def __init__(
        self,
        transformer: Transformer,
        storage: StorageManager,
        scheme: PartitionScheme | None = None,
    ) -> None:
        """Create an engine.

        Args:
            transformer: The serving model (provides the projection
                weights used for restoration).
            storage: Chunked host storage for hidden states / KV.
            scheme: The layout of the contexts this engine registers.
                By default layer 0 is a 1-layer RECOMPUTE prefix and every
                other layer HIDDEN: layer 0's hidden state *is*
                ``embedding[tokens]``, so it is never stored, written or
                read — restores project it from the journaled token log,
                bit-identically to a stored layer 0.
                ``PartitionScheme.pure_hcache`` is the explicit all-stored
                HCache-O ablation, ``PartitionScheme.pure_kv`` KV offload.
        """
        self.transformer = transformer
        self.storage = storage
        n_layers = transformer.config.n_layers
        if scheme is None:
            scheme = PartitionScheme.with_recompute_prefix(n_layers, 1)
        elif scheme.n_layers != n_layers:
            raise ConfigError("scheme layer count mismatches the model")
        self.scheme = scheme
        self._contexts: dict[str, int] = {}
        #: Where every restored cache takes its K/V slab, and where the
        #: serving engine's sessions give theirs back.
        self.arena = SlabArena()

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def register_context(self, context_id: str) -> None:
        """Declare a new context before saving states for it.

        Opens every run :attr:`scheme` stores — from here on those runs
        are the context's layout — in the context's one ``register``
        journal record, ahead of its first token ids: a crash before any
        of its rows reach a device then recovers it at zero tokens in this
        layout, rather than as a token log no run can back.
        """
        if context_id in self._contexts:
            raise StateError(f"context {context_id!r} already registered")
        self.storage.register_context(
            context_id,
            n_layers=self.transformer.config.n_layers,
            hidden_width=self.transformer.config.hidden_size,
            dtype=_STORED_DTYPE,
            kv_width=2 * self.transformer.config.kv_size,
            runs=[
                (layer, method.value)
                for layer, method in enumerate(self.scheme.methods)
                if method is not LayerMethod.RECOMPUTE
            ],
        )
        self._contexts[context_id] = 0

    def has_context(self, context_id: str) -> bool:
        return context_id in self._contexts

    def saved_tokens(self, context_id: str) -> int:
        if context_id not in self._contexts:
            raise StateError(f"context {context_id!r} not registered")
        return self._contexts[context_id]

    def layout(self, context_id: str) -> PartitionScheme:
        """The context's partition, read from its stored runs.

        A layer with a run restores by the run's kind; a layer with none
        is token-sourced.  Runs that are no layout — a layer holding both
        kinds, or token-sourced layers that are not a prefix — raise
        :class:`~repro.errors.SchedulingError`.
        """
        methods = [LayerMethod.RECOMPUTE] * self.transformer.config.n_layers
        for layer, kind in self.storage.runs(context_id):
            if methods[layer] is not LayerMethod.RECOMPUTE:
                raise SchedulingError(f"layer {layer} holds two runs")
            methods[layer] = LayerMethod(kind)
        return PartitionScheme(tuple(methods))

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

        The block goes to every run of the context's :meth:`layout`.
        RECOMPUTE layers store nothing: their K/V comes back from the
        journaled token ids.  Under such a layout (the default) the
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
            kv_cache: Required when the layout KV-offloads some layers;
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
        start = self.saved_tokens(context_id)
        layout = self.layout(context_id)
        if layout.n_kv and kv_cache is None:
            raise ConfigError("layout KV-offloads layers; a kv_cache is required to save them")
        if layout.n_recompute and not np.array_equal(
            hidden_states[0], self.transformer.embed(tokens)
        ):
            # Layer 0 is not stored: a restore rebuilds it from the token
            # log, which is only right if these rows are the embeddings.
            raise ConfigError(
                "layer-0 hidden states are not embedding[tokens]; the layout "
                "restores layer 0 from the token log"
            )
        # All or nothing: a save that cannot fit moves no run and no journal.
        need = self.storage.append_bytes(context_id, n_new)
        self.storage.check_room(need, f"saving {n_new} rows of {context_id!r}")
        # Token ids are journaled ahead of the state rows: the durable log
        # then always covers the durable rows, so crash recovery can
        # truncate it to the recovered row count without inventing ids.
        self.storage.journal_tokens(context_id, tokens)
        for layer, method in enumerate(layout.methods):
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
    def recover(cls, transformer: Transformer, storage: StorageManager) -> "HCacheEngine":
        """Adopt a crash-recovered storage manager's contexts.

        ``storage`` comes from :meth:`StorageManager.recover`; every
        context it holds is re-registered with a default engine at its
        durable token count, ready for a normal :meth:`restore`, and keeps
        the layout its runs give it — an all-stored context keeps and
        grows its layer-0 rows.  A context saved for another model's
        geometry, or whose runs are no layout, raises
        :class:`~repro.errors.RecoveryError` before any device is read.
        """
        engine = cls(transformer, storage)
        config = transformer.config
        shape = (config.n_layers, config.hidden_size, 2 * config.kv_size)
        for context_id in storage.context_ids():
            meta = storage.meta(context_id)
            saved = (meta.n_layers, meta.hidden_width, meta.kv_width)
            if saved != shape:
                raise RecoveryError(
                    f"context {context_id!r} was saved for a model of (layers, hidden "
                    f"width, packed KV width) {saved}; this model is {shape}"
                )
            try:
                engine.layout(context_id)
            except SchedulingError as exc:
                raise RecoveryError(f"context {context_id!r}'s runs are no layout: {exc}") from exc
            engine._contexts[context_id] = len(storage.token_log(context_id))
        return engine

    # ------------------------------------------------------------------
    # restoration
    # ------------------------------------------------------------------

    def restore(
        self,
        context_id: str,
        reserve_tokens: int = 0,
        *,
        executor: RestoreExecutor | None = None,
        progress: RestoreProgress | None = None,
    ) -> KVCache:
        """Rebuild the context's full KV cache, chunk-streamed (§4.1).

        One drain (:func:`repro.runtime.executor.drain_granules`) streams
        every stored layer as granules of
        :data:`~repro.storage.manager.GRANULE_CHUNKS` chunks, in one plan
        that merges the hidden and KV granules in proportion
        (:func:`merge_granule_plans`), so cheap KV installs refill the read
        window between projections.  A hidden granule goes through the
        fused projection (:meth:`Transformer.project_kv_chunk`) straight
        into the cache; a KV granule is installed.  The next read is
        issued before the pending granule is consumed, so compute starts
        at IO start — what ``CostModelEngine.start_restores`` books.

        The context's :meth:`layout` says which layers stream from which
        run.  A RECOMPUTE prefix of ``r`` layers is token-sourced by
        read-free plan items: layers ``[0, r - 1)`` are replayed from the
        journaled tokens (:meth:`Transformer.replay`) into this cache in
        row chunks of about a granule, merged in proportion with the stored
        granules; layer ``r - 1``, whose input rows are all its K/V needs,
        is then projected like a HIDDEN layer, one item per granule.  For
        ``r = 1`` (the default layout) that is the embedding gather and
        the projections, at the head of the plan.

        With ``executor`` the reads run on its IO workers while this
        thread computes, in plan order.  Concurrent ``restore`` calls are
        safe for *distinct* contexts sharing one executor, never
        concurrently with a save of the same context.

        Bit-exactness contract: HIDDEN and KV layers come back
        bit-identical to the saved states, for every granule and pool
        size, with or without an executor, and identical to the naive
        whole-layer reference.  A 1-layer RECOMPUTE prefix is
        bit-identical to a stored layer 0; a longer one to the serving
        prefill of the history (``replay``'s contract), which matches
        incrementally-decoded originals to float rounding.

        ``reserve_tokens`` sizes the cache for the upcoming round, so the
        history is never recopied by a capacity growth.  The cache's slab
        comes from :attr:`arena`, where an evicted session's slab went
        back (:mod:`repro.models.kv_cache`); its one owner gives it back:
        the returned cache, or with ``progress`` the step handle, which
        takes it over at plan time.  The restore counts nothing itself:
        the devices count and time its reads, an executor's pool its
        submissions.

        ``progress`` (optional) is told the planned cache before the first
        row is written, then each layer exactly once, the moment its last
        row is in.  The stepping thread may prefill on
        ``progress.step_cache`` meanwhile (see
        :mod:`repro.runtime.progress`); the returned cache still
        ``.equals`` the saved history.  A row left unfilled raises
        :class:`~repro.errors.RestorationError`.
        """
        n_tokens, layout, granules = self._plan_restore(context_id)
        cache = self.arena.cache(self.transformer.config, max(n_tokens, reserve_tokens))
        granule_tokens = min(n_tokens, self.storage.granule_tokens)
        if progress is not None:
            progress.planned(cache, n_tokens)
        rows_left = [n_tokens] * self.transformer.config.n_layers

        def landed(layer: int, rows: int) -> None:
            # Every stage that fills rows of a layer counts them here;
            # the layer is complete when its last row is in.
            rows_left[layer] -= rows
            if not rows_left[layer] and progress is not None:
                progress.layer_landed(layer)

        views = [cache.install_view(layer, n_tokens) for layer in range(len(rows_left))]
        workspace = (
            RestoreWorkspace(self.transformer.config, np.arange(n_tokens), granule_tokens)
            if layout.n_hidden or layout.n_recompute
            else None
        )

        def project(layer: int, start: int, rows: np.ndarray) -> None:
            k_view, v_view = views[layer]
            stop = start + rows.shape[0]
            self.transformer.project_kv_chunk(
                layer, rows, start, k_view[start:stop], v_view[start:stop], workspace
            )
            landed(layer, rows.shape[0])

        def consume(spec: GranuleSpec, rows: np.ndarray) -> None:
            if spec.kind == "hidden":
                project(spec.layer, spec.start, rows)
            else:
                cache.install_packed_rows(spec.layer, spec.start, rows)
                landed(spec.layer, rows.shape[0])

        def replay(a: int, b: int) -> None:  # a RECOMPUTE prefix's row chunk
            entering[a:b] = self.transformer.replay(tokens[a:b], views[:last], start=a)
            for layer in range(last):
                landed(layer, b - a)

        plan = granules
        if layout.n_recompute:
            # Layer r - 1's input rows (r = 1: the embedding gather) are all
            # its K/V needs, projected in the stored stream's granule
            # partition: bit-identical to restoring those rows from a device.
            last = layout.n_recompute - 1
            tokens = np.array(self.storage.token_log(context_id)[:n_tokens])
            entering = (np.empty((n_tokens, self.transformer.config.hidden_size), np.float32)
                        if last else self.transformer.replay(tokens, []))
            cuts = replay_chunks(n_tokens, -(-n_tokens // granule_tokens)) if last else [0]
            chunks = [partial(replay, a, b) for a, b in zip(cuts, cuts[1:])]
            plan = merge_granule_plans(chunks, granules)
            at = plan.index(chunks[-1]) + 1 if chunks else 0
            plan[at:at] = [
                partial(project, last, a, entering[a : a + granule_tokens])
                for a in range(0, n_tokens, granule_tokens)
            ]
        drain_granules(self.storage, context_id, plan, consume, executor)
        if any(rows_left):
            raise RestorationError(f"the restore left rows unfilled: {rows_left}")
        return cache

    def _plan_restore(self, context_id: str) -> tuple[int, PartitionScheme, list[GranuleSpec]]:
        """Check the stored runs; return the token count, layout and plan."""
        n_tokens = self.saved_tokens(context_id)
        if n_tokens == 0:
            raise RestorationError(f"context {context_id!r} has no saved state")
        layout = self.layout(context_id)
        plans = []
        # Hidden first, so a hidden granule wins a tie in the merge.
        for method in (LayerMethod.HIDDEN, LayerMethod.KV):
            layers = layout.layers_with(method)
            for layer in layers:
                stored = self.storage.tokens_stored(context_id, layer, kind=method.value)
                if stored != n_tokens:
                    raise RestorationError(
                        f"layer {layer} stores {stored} {method.value} rows, expected {n_tokens}"
                    )
            plans.append(self.storage.granule_plan(context_id, layers, method.value))
        return n_tokens, layout, merge_granule_plans(*plans)

    def storage_bytes_per_token(self) -> int:
        """Device bytes a context this engine registers stores per token
        (Table 3), at the element size the rows are stored in."""
        config = replace(self.transformer.config, dtype_bytes=_STORED_DTYPE.itemsize)
        return self.scheme.storage_bytes_per_token(config)
