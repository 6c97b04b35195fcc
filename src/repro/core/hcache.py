"""HCache end-to-end orchestration (§3.1, §4, Fig. 7).

:class:`HCacheEngine` is the public entry point for the *functional* side
of the reproduction: it persists a context's per-layer hidden states (and,
for scheduler-assigned layers, raw KV) into the chunked storage manager as
generation proceeds, evicts GPU state, and later restores a bit-accurate
KV cache by replaying only the K/V projections.  The same object reports
the modelled restoration timing for its platform, so the numeric and
performance views stay consistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.gqa import partition_kv_heads
from repro.core.partition import PartitionScheme
from repro.core.profiler import profile_platform
from repro.core.restoration import RestorationTiming, scheme_timing
from repro.core.scheduler import BubbleFreeScheduler, ScheduleDecision
from repro.errors import ConfigError, RecoveryError, RestorationError, StateError
from repro.models.kv_cache import KVCache
from repro.models.transformer import ProjectionStats, Transformer
from repro.runtime.executor import GranuleTrace, RestoreExecutor, drain_granules
from repro.runtime.progress import RestoreProgress
from repro.simulator.hardware import InterconnectSpec, Platform
from repro.simulator.multi_gpu import allgather_time
from repro.simulator.pipeline import (
    LayerMethod,
    ShardedStageTimeline,
    sharded_restoration_makespan,
)
from repro.storage.manager import StorageManager
from repro.storage.streaming import LayerChunk, pipelined_makespan

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    # BlockStateStore is typing-only to break the import cycle
    # core.hcache -> repro.state -> repro.cache -> repro.baselines ->
    # repro.core; the store arrives fully constructed by the caller.
    from repro.state import BlockStateStore


@dataclass
class RestoreBreakdown:
    """Per-stage accounting of one chunk-streamed restoration.

    Filled by :meth:`HCacheEngine.restore` when passed in.  Measured
    fields are wall-clock seconds of this process.  ``modelled_io_s``
    comes from the storage devices' timing model; the two makespans are
    **hybrid** figures — modelled device IO overlapped against this
    run's *measured* per-granule compute — so they show the structure of
    the §4.1 pipeline (how much the overlap buys on this machine), not a
    host-independent prediction.  With compute overlapping transfer, the
    restoration critical path is ``modelled_pipelined_s``, not the
    serial sum.

    Attributes:
        n_tokens: Tokens restored.
        granules: Streamed granules consumed (across layers and kinds).
        device_reads: Chunk reads issued against storage devices.
        read_s: Measured wall time inside streamed storage reads.
        install_s: Measured wall time installing KV-offloaded chunks.
        recompute_s: Measured wall time replaying a RECOMPUTE prefix.
        projection: Per-stage (norm / GEMM / RoPE) projection times.
        modelled_io_s: Modelled device time of all chunk reads.
        modelled_serial_s: Hybrid makespan of the pre-pipeline shape
            (modelled reads, then all measured compute, serially).
        modelled_pipelined_s: Hybrid makespan with each granule's
            measured compute overlapping the next granule's modelled
            read — the §4.1 shape.
    """

    n_tokens: int = 0
    granules: int = 0
    device_reads: int = 0
    read_s: float = 0.0
    install_s: float = 0.0
    recompute_s: float = 0.0
    projection: ProjectionStats = field(default_factory=ProjectionStats)
    modelled_io_s: float = 0.0
    modelled_serial_s: float = 0.0
    modelled_pipelined_s: float = 0.0
    #: Tokens served from the shared block pool instead of storage (their
    #: chunk reads never reach a device).
    shared_tokens: int = 0
    #: Measured wall time projecting/installing pool-resident blocks.
    pool_s: float = 0.0
    #: Measured submit-side executor overhead: staging-slot acquisition
    #: plus pool handoff per granule (zero without an executor).
    #: Together with the exposed ``read_s`` stall it itemizes the gap
    #: between wall clock and the modelled makespan.
    dispatch_s: float = 0.0
    #: Hybrid makespan of the sharded timeline: modelled device reads at
    #: the shards' aggregated bandwidth plus per-granule gathers on
    #: concurrent per-stage IO streams, merged against this run's
    #: measured compute on the one calling-thread merge stream (see
    #: :func:`repro.simulator.pipeline.sharded_restoration_makespan`).
    #: On the ``(1, 1)`` shape this is the §4.1 recurrence per kind.
    modelled_sharded_s: float = 0.0
    #: ``(pipeline, tensor)`` shard shape of the restore.
    shard_shape: tuple[int, int] = (1, 1)


@dataclass(frozen=True)
class _RestorePlan:
    """What one restoration's hidden and KV drains share, resolved once.

    ``shared`` is the pool-served prefix length (granule-aligned or the
    whole context); ``suffix_rows`` are the collection buffers of an
    admission gap being closed (see :meth:`HCacheEngine._shared_prefix`);
    ``head_ranges`` the tensor dimension's KV-head partition, ``None`` on
    a single tensor rank.
    """

    context_id: str
    n_tokens: int
    cache: KVCache
    hidden_layers: list[int]
    kv_layers: list[int]
    head_ranges: "tuple[tuple[int, int], ...] | None"
    granule_tokens: int
    shared: int
    suffix_rows: "dict[tuple[int, str], np.ndarray] | None"
    executor: "RestoreExecutor | None"
    stats: "RestoreBreakdown | None"


@dataclass(frozen=True)
class SavedContext:
    """Book-keeping for one context the engine manages.

    Attributes:
        context_id: Stable identity.
        scheme: Partition scheme its states were saved under.
        n_tokens: Tokens saved so far.
    """

    context_id: str
    scheme: PartitionScheme
    n_tokens: int


class HCacheEngine:
    """Saves and restores LLM contextual state via hidden states."""

    def __init__(
        self,
        transformer: Transformer,
        storage: StorageManager,
        platform: Platform | None = None,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
        shared_store: BlockStateStore | None = None,
    ) -> None:
        """Create an engine.

        Args:
            transformer: The serving model (provides the projection
                weights used for restoration).
            storage: Chunked host storage for hidden states / KV.
            platform: Hardware platform for timing queries; when given and
                ``scheme`` is omitted, the bubble-free scheduler picks the
                partition from an offline profile at a reference length.
            scheme: Fixed partition scheme.  With neither a scheme nor a
                platform, layer 0 is a 1-layer RECOMPUTE prefix and every
                other layer HIDDEN: layer 0's hidden state *is*
                ``embedding[tokens]``, so it is never stored, written or
                read — restores project it from the journaled token log,
                bit-identically to a stored layer 0.
                ``PartitionScheme.pure_hcache`` is the explicit all-stored
                HCache-O ablation.
            stream_granule_chunks: Storage chunks coalesced into each
                streamed restore granule.  IO stays chunk-granular; this
                only sets how many rows each fused projection call covers.
            shared_store: Optional block-paged state store
                (:class:`repro.state.BlockStateStore`).  When given,
                saves also publish each context's stored rows into the
                shared pool and restores serve any pool-resident shared
                prefix without touching storage — bit-exactly equal to
                the unshared path.  Its block size must be a multiple of
                the storage chunk size so shared prefixes are always
                chunk-aligned, and its geometry must match the model.
        """
        if stream_granule_chunks <= 0:
            raise ConfigError("stream_granule_chunks must be positive")
        self.transformer = transformer
        self.storage = storage
        self.platform = platform
        self.stream_granule_chunks = stream_granule_chunks
        config = transformer.config
        if scheme is not None:
            if scheme.n_layers != config.n_layers:
                raise ConfigError("scheme layer count mismatches the model")
            self.scheme = scheme
            self.decision: ScheduleDecision | None = None
        elif platform is not None:
            profile = profile_platform(config, platform, n_tokens=1024)
            self.decision = BubbleFreeScheduler(config.n_layers).schedule(profile)
            self.scheme = self.decision.scheme
        else:
            self.scheme = PartitionScheme.with_recompute_prefix(config.n_layers, 1)
            self.decision = None
        if shared_store is not None:
            pool = shared_store.pool
            if pool.block_tokens % storage.tokens_per_chunk != 0:
                raise ConfigError(
                    f"pool blocks of {pool.block_tokens} tokens must be a "
                    f"multiple of the {storage.tokens_per_chunk}-token chunk"
                )
            if (
                pool.n_layers != config.n_layers
                or pool.hidden_width != config.hidden_size
                or pool.n_kv_heads != config.n_kv_heads
                or pool.head_dim != config.head_dim
            ):
                raise ConfigError("shared store geometry mismatches the model")
            if self.scheme.n_recompute == config.n_layers:
                # A pure-recompute scheme stores no state rows at all;
                # tracking sessions would only pin empty blocks.
                shared_store = None
        self.shared_store = shared_store
        self._contexts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def register_context(self, context_id: str) -> None:
        """Declare a new context before saving states for it."""
        if context_id in self._contexts:
            raise StateError(f"context {context_id!r} already registered")
        self.storage.register_context(
            context_id,
            n_layers=self.transformer.config.n_layers,
            hidden_width=self.transformer.config.hidden_size,
            dtype=np.float32,
            kv_width=2 * self.transformer.config.kv_size,
        )
        if self.shared_store is not None:
            self.shared_store.track(context_id)
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
        shared_rows: dict[tuple[int, str], np.ndarray] = {}
        publish = (
            self.shared_store is not None
            and self.shared_store.is_tracked(context_id)
        )
        for layer, method in enumerate(self.scheme.methods):
            if method is LayerMethod.HIDDEN:
                self.storage.append(context_id, layer, hidden_states[layer], kind="hidden")
                if publish:
                    shared_rows[(layer, "hidden")] = hidden_states[layer]
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
                if publish:
                    shared_rows[(layer, "kv")] = packed
        if publish:
            # Mirror the same bytes into the shared pool (dedup happens as
            # blocks fill).  A False return means the session fell back to
            # the unshared path — storage remains the source of truth, so
            # nothing else changes.
            assert self.shared_store is not None
            self.shared_store.append(context_id, start, tokens, shared_rows)
        self._contexts[context_id] = start + n_new

    def seal(self, context_id: str) -> None:
        """Flush tail chunks when a round ends and GPU state is evicted."""
        self.saved_tokens(context_id)
        self.storage.seal_context(context_id)

    def drop_context(self, context_id: str) -> None:
        """Remove a context's states entirely.

        Shared pool blocks are unreferenced, not destroyed: blocks other
        sessions still reference stay live, and committed refcount-0
        blocks linger as eviction candidates for future admissions.
        """
        self.saved_tokens(context_id)
        if self.shared_store is not None and self.shared_store.is_tracked(context_id):
            self.shared_store.release(context_id)
        self.storage.free_context(context_id)
        del self._contexts[context_id]

    def token_log(self, context_id: str) -> tuple[int, ...]:
        """The context's saved token ids (the prompt log), oldest first."""
        self.saved_tokens(context_id)
        return self.storage.token_log(context_id)

    def context_ids(self) -> tuple[str, ...]:
        return tuple(self._contexts)

    def saved_context(self, context_id: str) -> SavedContext:
        return SavedContext(context_id, self.scheme, self.saved_tokens(context_id))

    @classmethod
    def recover(
        cls,
        transformer: Transformer,
        storage: StorageManager,
        platform: Platform | None = None,
        scheme: PartitionScheme | None = None,
        stream_granule_chunks: int = 4,
        shared_store: BlockStateStore | None = None,
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

        ``shared_store`` may be a fresh (empty) block store: the DRAM
        pool does not survive a crash, but each post-recovery
        :meth:`restore` re-admits its context and republishes the rows it
        streams back, so shared prefixes re-deduplicate to the same
        content-hash keys and refcounts rebuild as survivors restore.
        """
        engine = cls(
            transformer, storage, platform, scheme, stream_granule_chunks,
            shared_store=shared_store,
        )
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
            for layer, method in enumerate(engine.scheme.methods):
                kind = None
                if method is LayerMethod.HIDDEN:
                    kind = "hidden"
                elif method is LayerMethod.KV:
                    kind = "kv"
                for other in ("hidden", "kv"):
                    if other != kind and storage.tokens_stored(context_id, layer, kind=other):
                        unread.append((context_id, layer, other))
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
        stats: RestoreBreakdown | None = None,
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
        nothing stored, it simply runs).  Both kinds drain through the one loop
        (:func:`repro.runtime.executor.drain_granules`), which is
        double-buffered: the next granule's device read is issued before
        the pending granule is projected, so in the modelled timeline
        layer *k*'s projection overlaps layer *k+1*'s read — compute
        starts at IO start, which is exactly what the serving simulator's
        ``request_io_start`` assumes.

        With ``executor`` (a :class:`repro.runtime.RestoreExecutor`), the
        granule reads actually run on background IO workers while this
        thread projects, making the overlap real wall clock instead of
        only modelled, and the restoration is partitioned across the
        executor's ``(pipeline, tensor)`` grid of simulated GPUs:
        contiguous layer stages drain concurrently, and with ``tensor >
        1`` each granule's merge is split into GQA-group-aligned KV-head
        ranges.  Threading rules: all projection compute runs on the
        calling thread in plan order, workers only fill staging slots
        they own, and concurrent ``restore`` calls are safe for
        *distinct* contexts sharing one executor (never concurrently with
        a save of the same context).

        Bit-exactness contract: HIDDEN and KV layers come back
        bit-identical to the states that were saved — for every granule
        size, pool size and shard shape, with or without an executor, and
        identical to the naive whole-layer reference path.  A 1-layer
        RECOMPUTE prefix is bit-identical to restoring a stored layer 0
        (same rows, same kernel, same granule split).  A longer one
        replays the forward pass as one block, which matches
        incrementally-decoded originals to float rounding (the same
        GEMM-blocking caveat as restoring any decode-produced state).

        ``reserve_tokens`` lets the serving engine size the cache for the
        upcoming round up front, so the restored history never has to be
        recopied by a post-restore capacity growth.  ``stats`` (optional)
        collects the per-stage :class:`RestoreBreakdown`; with an
        executor its ``read_s`` is the *exposed* IO stall (reads the
        pipeline failed to hide) rather than total read time.

        ``progress`` (optional) makes the hand-over a *layer*, not a
        cache: it is told the planned cache before the first row is
        written, then each layer the moment its last row has been
        projected or installed — hidden drain, KV drain, token-sourced
        prefix and pool-served prefix alike, each layer exactly once, in
        whatever order the stages finish them.  The stepping thread may
        then prefill on ``progress.step_cache`` while later layers are
        still landing (see :mod:`repro.runtime.progress`); the cache
        returned here is untouched by that — at return it still
        ``.equals`` the saved history, with ``len(cache) == n_tokens``.
        """
        return self._restore(context_id, reserve_tokens, stats, executor, progress)

    def _restore(
        self,
        context_id: str,
        reserve_tokens: int,
        stats: RestoreBreakdown | None,
        executor: RestoreExecutor | None,
        progress: RestoreProgress | None,
    ) -> KVCache:
        """Plan -> drain -> install; see :meth:`restore` for the contract."""
        plan = self._plan_restore(context_id, reserve_tokens, stats, executor)
        cache, n_tokens, shared = plan.cache, plan.n_tokens, plan.shared
        timed = stats is not None
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
        token_prefix_s = 0.0
        # (kind, layers, serve_prefix, consume_rows) of each stored kind.
        drains: list[tuple] = []
        if plan.hidden_layers or n_recompute:
            granule_tokens = plan.granule_tokens
            workspace = self.transformer.restore_workspace(
                np.arange(n_tokens), granule_tokens, plan.head_ranges
            )
            # The last RECOMPUTE layer is projected like a HIDDEN one —
            # its input rows come from the token log instead of a device.
            projected = ([n_recompute - 1] if n_recompute else []) + plan.hidden_layers
            views = {layer: cache.install_view(layer, n_tokens) for layer in projected}
            proj_stats = stats.projection if timed else None
            # One granule of pool rows, gathered across block boundaries.
            staging = np.empty_like(workspace.normed) if shared else None

            def project(layer: int, start: int, rows: np.ndarray) -> None:
                k_view, v_view = views[layer]
                stop = start + rows.shape[0]
                self.transformer.project_kv_chunk(
                    layer, rows, start, k_view[start:stop], v_view[start:stop],
                    workspace, proj_stats,
                )
                landed(layer, rows.shape[0])

            def project_pool_prefix(layer: int) -> None:
                # Pool-served rows MUST project in the exact granule
                # partition the storage stream would have used: the fused
                # projection is only bit-stable for a fixed chunk split,
                # not across splits, so serving a block-sized chunk here
                # would diverge from the private path in the last ulp.
                for start in range(0, shared, granule_tokens):
                    stop = min(start + granule_tokens, shared)
                    self._gather_pool_hidden(context_id, layer, start, stop, staging)
                    project(layer, start, staging[: stop - start])

            if n_recompute:

                def run_token_prefix() -> None:
                    nonlocal token_prefix_s
                    token_prefix_s = self._restore_token_prefix(plan, project, landed)

                token_prefix = run_token_prefix

            if plan.hidden_layers:
                drains.append(("hidden", plan.hidden_layers, project_pool_prefix, project))
        if plan.kv_layers:
            for layer in plan.kv_layers:
                cache.install_view(layer, n_tokens)

            def install(layer: int, start: int, packed: np.ndarray) -> None:
                t0 = time.perf_counter() if timed else 0.0
                if plan.head_ranges is None:
                    cache.install_packed_rows(layer, start, packed)
                else:
                    # Each tensor rank installs its own head range of the
                    # packed granule; the ranges tile [0, n_kv_heads), so
                    # together they land the same bytes as the full-width
                    # install.
                    for h0, h1 in plan.head_ranges:
                        cache.install_packed_head_rows(layer, start, packed, h0, h1)
                if timed:
                    stats.install_s += time.perf_counter() - t0
                landed(layer, packed.shape[0])

            def install_pool_prefix(layer: int) -> None:
                block_tokens = self.shared_store.block_tokens
                for bstart in range(0, shared, block_tokens):
                    k_rows, v_rows = self.shared_store.kv_rows(
                        context_id, bstart // block_tokens, layer
                    )
                    rows = min(k_rows.shape[0], shared - bstart)
                    cache.install_rows(layer, bstart, k_rows[:rows], v_rows[:rows])
                    landed(layer, rows)

            drains.append(("kv", plan.kv_layers, install_pool_prefix, install))
        # The token-sourced prefix rides under the first drain's IO
        # stream; with nothing stored it simply runs.
        traces = {
            drain[0]: self._restore_kind(plan, *drain, None if i else token_prefix)
            for i, drain in enumerate(drains)
        }
        if token_prefix is not None and not drains:
            token_prefix()
        if plan.suffix_rows is not None:
            self._republish_suffix(plan)
        if timed:
            self._model_makespans(stats, traces, token_prefix_s)
        if len(cache) != n_tokens:
            raise RestorationError("restored cache length mismatch")
        return cache

    def _restore_token_prefix(
        self,
        plan: _RestorePlan,
        project: Callable[[int, int, np.ndarray], None],
        landed: Callable[[int, int], None],
    ) -> float:
        """Fill the RECOMPUTE layers ``[0, r)`` from the token log alone.

        Only the layers *before* the last one are replayed in full
        (:meth:`Transformer.recompute_prefix`); the last one's input rows
        are all its K/V needs — for ``r = 1`` the embedding gather alone
        — and go through ``project`` in the stored stream's granule
        partition, so the result is bit-identical to restoring those
        rows from a device (and counted as landed there; a replayed
        layer is reported through ``landed`` as it is installed).
        Returns the wall seconds of the whole prefix; ``stats.recompute_s`` gets the replay alone (the last
        layer's projection is in ``stats.projection``).
        """
        last = self.scheme.n_recompute - 1
        t0 = time.perf_counter()
        tokens = np.array(self.storage.token_log(plan.context_id)[: plan.n_tokens])
        replayed, rows = self.transformer.recompute_prefix(tokens, last)
        for layer in range(last):
            plan.cache.install(layer, *replayed.get(layer))
            landed(layer, plan.n_tokens)
        if plan.stats is not None:
            plan.stats.recompute_s += time.perf_counter() - t0
        for start in range(0, plan.n_tokens, plan.granule_tokens):
            project(last, start, rows[start : start + plan.granule_tokens])
        return time.perf_counter() - t0

    def _plan_restore(
        self,
        context_id: str,
        reserve_tokens: int,
        stats: RestoreBreakdown | None,
        executor: RestoreExecutor | None,
    ) -> _RestorePlan:
        """Resolve, once, everything the hidden and KV drains share."""
        n_tokens = self.saved_tokens(context_id)
        if n_tokens == 0:
            raise RestorationError(f"context {context_id!r} has no saved state")
        config = self.transformer.config
        hidden_layers = list(self.scheme.layers_with(LayerMethod.HIDDEN))
        kv_layers = list(self.scheme.layers_with(LayerMethod.KV))
        shape = executor.shard_shape if executor is not None else (1, 1)
        # An illegal tensor split (more shards than KV heads would cut a
        # GQA group) must raise before any state is touched.
        head_ranges = (
            partition_kv_heads(config.n_kv_heads, shape[1]) if shape[1] > 1 else None
        )
        cache = KVCache(config)
        cache.reserve(max(n_tokens, reserve_tokens))
        self._check_stored(context_id, hidden_layers, "hidden", n_tokens)
        self._check_stored(context_id, kv_layers, "kv", n_tokens)
        shared, suffix_rows = self._shared_prefix(context_id, n_tokens)
        if stats is not None:
            stats.n_tokens, stats.shared_tokens, stats.shard_shape = n_tokens, shared, shape
        return _RestorePlan(
            context_id=context_id,
            n_tokens=n_tokens,
            cache=cache,
            hidden_layers=hidden_layers,
            kv_layers=kv_layers,
            head_ranges=head_ranges,
            granule_tokens=min(
                n_tokens, self.stream_granule_chunks * self.storage.tokens_per_chunk
            ),
            shared=shared,
            suffix_rows=suffix_rows,
            executor=executor,
            stats=stats,
        )

    def _restore_kind(
        self,
        plan: _RestorePlan,
        kind: str,
        layers: list[int],
        serve_prefix: Callable[[int], None],
        consume_rows: Callable[[int, int, np.ndarray], None],
        under_io: Callable[[], None] | None,
    ) -> list[GranuleTrace]:
        """Restore one kind (hidden or KV) of the planned context's layers.

        ``serve_prefix(layer)`` serves the pool-resident shared prefix;
        the stored suffix then drains through :func:`drain_granules`,
        each granule handed to ``consume_rows(layer, start, rows)`` and —
        when an admission gap is being closed — collected into the plan's
        ``suffix_rows`` for the republish.  ``under_io`` (the
        token-sourced prefix, or ``None``) runs once the drain's first
        reads are in flight — or right away when the pool serves
        everything (``shared`` is then the whole context, not a chunk
        boundary the drain could start from).  Returns the drain's trace.
        """
        shared, suffix_rows, stats = plan.shared, plan.suffix_rows, plan.stats
        if shared:
            t0 = time.perf_counter() if stats is not None else 0.0
            for layer in layers:
                serve_prefix(layer)
            if stats is not None:
                stats.pool_s += time.perf_counter() - t0
        if shared == plan.n_tokens:
            if under_io is not None:
                under_io()
            return []

        def consume(chunk: LayerChunk) -> None:
            consume_rows(chunk.layer, chunk.start, chunk.data)
            if suffix_rows is not None:
                suffix_rows[(chunk.layer, kind)][
                    chunk.start - shared : chunk.stop - shared
                ] = chunk.data

        return drain_granules(
            self.storage, plan.context_id, layers, kind, self.stream_granule_chunks,
            consume, plan.executor, shared, stats, under_io,
        )

    def _republish_suffix(self, plan: _RestorePlan) -> None:
        """Close an admission gap after the suffix streamed from storage.

        The collected rows are republished into the pool, so the session
        is fully pool-resident (future appends stay contiguous) and its
        suffix blocks become shareable for later admissions.  The table
        may hold a few more blocks than the granule-aligned ``shared``
        (admission adopts whole blocks); append only what the pool does
        not already have.
        """
        assert self.shared_store is not None and plan.suffix_rows is not None
        resident = self.shared_store.resident_tokens(plan.context_id)
        tokens_all = self.storage.token_log(plan.context_id)
        fresh = {
            key: rows[resident - plan.shared :] for key, rows in plan.suffix_rows.items()
        }
        self.shared_store.append(
            plan.context_id, resident, list(tokens_all[resident : plan.n_tokens]), fresh
        )

    def _model_makespans(
        self,
        stats: RestoreBreakdown,
        traces: dict[str, list[GranuleTrace]],
        token_prefix_s: float,
    ) -> None:
        """Fill ``stats``' hybrid makespans from the drains' measured traces."""
        # The token-sourced prefix and the pool-resident shared prefix
        # need no stored state: one leading zero-IO granule on the compute
        # stream of the first drain, overlapping the stream from its
        # very first read.
        lead = GranuleTrace(0, 0, 0.0, token_prefix_s + stats.pool_s)
        drains = list(traces.items()) or [("hidden", [])]
        drains[0] = (drains[0][0], [lead, *drains[0][1]])
        trace = [granule for _, kind_trace in drains for granule in kind_trace]
        io_times = [granule.io_seconds for granule in trace]
        compute_times = [granule.compute_seconds for granule in trace]
        stats.modelled_io_s = sum(io_times)
        stats.modelled_serial_s = stats.modelled_io_s + sum(compute_times)
        stats.modelled_pipelined_s = pipelined_makespan(io_times, compute_times)
        # The sequential hidden/kv drains each contribute their sharded
        # makespan.  Hidden granules must be reassembled across tensor
        # ranks before projection; KV installs gather nothing.
        tensor_shards = stats.shard_shape[1]
        hidden_row_bytes = 4 * self.transformer.config.hidden_size
        stats.modelled_sharded_s = sum(
            self._sharded_makespan(
                kind_trace, tensor_shards, hidden_row_bytes if kind == "hidden" else 0
            )
            for kind, kind_trace in drains
        )

    def _sharded_makespan(
        self, trace: list[GranuleTrace], tensor_shards: int, gather_bytes_per_row: int
    ) -> float:
        """Hybrid sharded makespan of one drain's measured trace.

        Per stage, the §4.1 two-stream recurrence over its granules with
        reads priced at the tensor ranks' aggregated bandwidth plus a
        per-granule all-gather of ``gather_bytes_per_row`` bytes per row:
        stage IO streams advance concurrently, while every granule merges
        through the single calling-thread compute stream.
        """
        if not trace:
            return 0.0
        interconnect = (
            self.platform.interconnect if self.platform is not None else InterconnectSpec()
        )
        gathers = gather_bytes_per_row and tensor_shards > 1
        by_stage: dict[int, list[GranuleTrace]] = {}
        for granule in trace:
            by_stage.setdefault(granule.stage, []).append(granule)
        timelines = [
            ShardedStageTimeline(
                stage=stage,
                io_seconds=tuple(g.io_seconds for g in granules),
                compute_seconds=tuple(g.compute_seconds for g in granules),
                gather_seconds=tuple(
                    allgather_time(g.rows * gather_bytes_per_row, tensor_shards, interconnect)
                    if gathers and g.rows
                    else 0.0
                    for g in granules
                ),
            )
            for stage, granules in sorted(by_stage.items())
        ]
        return sharded_restoration_makespan(timelines, tensor_shards)

    def _shared_prefix(
        self, context_id: str, n_tokens: int
    ) -> tuple[int, dict[tuple[int, str], np.ndarray] | None]:
        """Resolve the pool-resident prefix before a restore.

        Returns ``(shared_tokens, suffix_rows)``.  A tracked session is
        fully pool-resident (saves mirror appends 1:1), so the whole
        restore is served from blocks.  An untracked one — evicted before
        the store existed, or re-registered after crash recovery — is
        admitted against the pool's committed prefixes; when that leaves
        a gap, ``suffix_rows`` carries preallocated collection buffers
        the drain fills so the gap can be republished afterwards.
        ``shared_tokens`` is always granule-aligned or equal to
        ``n_tokens``, so the streamed suffix sits on the same granule
        grid a private restore uses.
        """
        store = self.shared_store
        if store is None:
            return 0, None
        granule = self.stream_granule_chunks * self.storage.tokens_per_chunk
        if store.is_tracked(context_id):
            resident = store.resident_tokens(context_id)
            if resident > n_tokens:
                raise StateError(
                    f"context {context_id!r} has {resident} pool-resident tokens "
                    f"but only {n_tokens} saved"
                )
            if resident == n_tokens:
                return resident, None
            # Defensive: a tracked session should mirror its saves
            # exactly; serve whatever aligned prefix is resident.
            return (resident // granule) * granule, None
        tokens = self.storage.token_log(context_id)
        admitted = store.admit(context_id, list(tokens[:n_tokens]))
        if admitted >= n_tokens:
            return admitted, None
        # Rounding down to a granule boundary keeps the suffix stream on
        # the same granule grid a fully private restore walks — sharing
        # may only change where bytes come from, never the chunk split
        # the projection sees (bit-exactness is split-sensitive).
        shared = (admitted // granule) * granule
        config = self.transformer.config
        suffix = n_tokens - shared
        suffix_rows: dict[tuple[int, str], np.ndarray] = {}
        for layer, method in enumerate(self.scheme.methods):
            if method is LayerMethod.HIDDEN:
                suffix_rows[(layer, "hidden")] = np.empty(
                    (suffix, config.hidden_size), dtype=np.float32
                )
            elif method is LayerMethod.KV:
                suffix_rows[(layer, "kv")] = np.empty(
                    (suffix, 2 * config.kv_size), dtype=np.float32
                )
        return shared, suffix_rows

    def _gather_pool_hidden(
        self,
        context_id: str,
        layer: int,
        start: int,
        stop: int,
        out: np.ndarray,
    ) -> None:
        """Assemble pool-resident hidden rows ``[start, stop)`` into ``out``.

        Spans cross block boundaries, so the rows are copied into one
        contiguous staging buffer before projection — the projection must
        see the stream path's exact granule shapes, and a pool block view
        cannot provide a span that straddles two blocks.
        """
        store = self.shared_store
        assert store is not None
        block_tokens = store.block_tokens
        filled = 0
        position = start
        while position < stop:
            index = position // block_tokens
            offset = position % block_tokens
            data = store.hidden_rows(context_id, index, layer)
            take = min(stop - position, data.shape[0] - offset)
            out[filled : filled + take] = data[offset : offset + take]
            filled += take
            position += take

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        """Modelled restoration time for a context of ``n_tokens``.

        Requires the engine to have been built with a platform.
        """
        if self.platform is None:
            raise ConfigError("engine was built without a platform; timing unavailable")
        return scheme_timing(self.transformer.config, self.platform, n_tokens, self.scheme)

    def storage_bytes_per_token(self) -> int:
        """Per-token storage footprint of the active scheme (Table 3)."""
        return self.scheme.storage_bytes_per_token(self.transformer.config)
