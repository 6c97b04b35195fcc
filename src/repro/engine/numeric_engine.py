"""Numeric serving engine: real forward passes with HCache state handling.

Where :mod:`repro.engine.serving` models *time*, this engine models
*values*: it runs the numpy transformer for actual multi-round sessions,
saves hidden states through the HCache engine as tokens are produced,
evicts GPU state between rounds, restores it on the next round, and
generates real tokens.  Every round is served by the one loop,
:class:`~repro.engine.frontend.ServingFrontend`, and runs on the packed
kernel through :meth:`NumericServingEngine.execute_iteration`.
Correctness tests compare its token streams against an uninterrupted
serial ``Transformer.forward`` run of the same conversation, the oracle
— they must match exactly, which is the paper's losslessness claim in
executable form.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.hcache import HCacheEngine
from repro.engine.api import IterationResult
from repro.errors import ConfigError, RestorationError, StateError
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime.executor import RestoreExecutor
from repro.runtime.progress import RestoreProgress


@dataclass
class SessionState:
    """One conversation's numeric state.

    Attributes:
        session_id: Stable identity (doubles as the storage context id).
        tokens: All tokens of the conversation so far, in order.
        kv_cache: GPU-resident cache, or ``None`` while evicted.
    """

    session_id: str
    tokens: list[int] = field(default_factory=list)
    kv_cache: KVCache | None = None

    @property
    def on_gpu(self) -> bool:
        return self.kv_cache is not None


class NumericServingEngine:
    """Executes stateful multi-round generation with HCache restoration."""

    def __init__(
        self,
        transformer: Transformer,
        hcache: HCacheEngine,
        *,
        executor: RestoreExecutor | None = None,
    ) -> None:
        """Wrap a transformer and its HCache engine.

        ``executor`` (optional) is a shared :class:`RestoreExecutor`:
        every restoration this engine performs then overlaps its storage
        reads with projection compute on the executor's IO worker pool,
        and :meth:`start_restores` — the one place this engine starts a
        restore — brings evicted sessions back in the background, one
        after the other in start order.  Restored values are
        bit-identical in every case.  Each restore is one
        :class:`RestoreProgress`: in ``_restoring`` until reported, then
        its session's ``kv_cache.landing`` until :meth:`_settle_restore`.
        """
        if hcache.transformer is not transformer:
            raise ConfigError("HCache engine must wrap the same transformer")
        self.transformer = transformer
        self.hcache = hcache
        self.executor = executor
        self._sessions: dict[str, SessionState] = {}
        #: Restores begun by :meth:`start_restores` and not yet reported
        #: by :meth:`finished_restores`.
        self._restoring: dict[str, RestoreProgress] = {}
        #: Notified by every restore on each landed layer and at its end.
        self._restore_changed = threading.Condition()
        #: Wall seconds of the last prefill-carrying iteration, net of the
        #: time it spent waiting on landing layers — how long the released
        #: session's own prompt call is expected to take.
        self._prefill_s = 0.0
        #: Wall seconds of the last model call, waits included: how far off
        #: the next release decision is.  With both at 0 (no call made yet)
        #: only an ended restore is released.
        self._call_s = 0.0
        #: Sessions reported by :meth:`finished_restores` while their
        #: restore was still streaming (monotonic; tests and the smoke gate
        #: read it).
        self.early_releases = 0

    @classmethod
    def recover(
        cls,
        transformer: Transformer,
        hcache: HCacheEngine,
        *,
        executor: RestoreExecutor | None = None,
    ) -> "NumericServingEngine":
        """Re-open every session a crash-recovered HCache engine holds.

        ``hcache`` comes from :meth:`HCacheEngine.recover`; each of its
        contexts becomes an evicted session whose token log is the
        durable log — the next round served restores its KV cache
        through the completely ordinary restore path.  Tokens past the
        durability boundary (unsealed tail rows lost in the crash) are
        simply absent from the log, as if they were never generated.
        """
        engine = cls(transformer, hcache, executor=executor)
        for context_id in hcache.context_ids():
            engine._sessions[context_id] = SessionState(
                session_id=context_id,
                tokens=list(hcache.token_log(context_id)[: hcache.saved_tokens(context_id)]),
            )
        return engine

    @property
    def max_context(self) -> int:
        return self.transformer.config.max_context

    @property
    def vocab_size(self) -> int:
        return self.transformer.config.vocab_size

    def open_session(self, session_id: str) -> SessionState:
        """Start a new conversation."""
        if session_id in self._sessions:
            raise StateError(f"session {session_id!r} already open")
        state = SessionState(session_id=session_id)
        self._sessions[session_id] = state
        self.hcache.register_context(session_id)
        return state

    def session(self, session_id: str) -> SessionState:
        if session_id not in self._sessions:
            raise StateError(f"session {session_id!r} not open")
        return self._sessions[session_id]

    def has_session(self, session_id: str) -> bool:
        """Whether ``session_id`` is open (the front end opens lazily)."""
        return session_id in self._sessions

    def history_length(self, session_id: str) -> int:
        return len(self.session(session_id).tokens)

    def _resident(self, session_id: str, *, decoding: bool = False) -> SessionState:
        """The session, holding a GPU cache that agrees with its token log.

        A session with no history at all gets a fresh cache — unless it
        is ``decoding``, which needs a prefilled context to continue.
        """
        state = self.session(session_id)
        if decoding and not state.tokens:
            raise StateError(
                f"session {session_id!r} has no prefilled context to decode from"
            )
        if state.kv_cache is None:
            if state.tokens:
                raise StateError(
                    f"session {session_id!r} is not GPU-resident; restore it first"
                )
            state.kv_cache = self.hcache.arena.cache(self.transformer.config)
        if len(state.kv_cache) != len(state.tokens):
            raise StateError(
                f"session {session_id!r}: cache holds {len(state.kv_cache)} tokens, "
                f"log has {len(state.tokens)}"
            )
        return state

    def execute_iteration(
        self,
        prefill_chunks: Sequence[tuple[str, np.ndarray]] = (),
        decode_tokens: Mapping[str, int] | None = None,
    ) -> IterationResult:
        """Execute one continuous-batching iteration as ONE model call.

        The engine half of the submit/step front end: the scheduler's
        :class:`~repro.engine.splitfuse.IterationPlan` maps directly onto
        the two arguments — ``prefill_chunks`` are ``(session_id,
        tokens)`` prompt chunks under the SplitFuse budget, and
        ``decode_tokens`` feeds each decoding session its pending token.

        Every chunk and every decode token becomes one segment of a
        single packed transformer pass, each attending against its own
        session's cache — so which sessions share an iteration is free to
        change from one call to the next.  Each segment's hidden states —
        its rows of the call's own per-layer inputs, no copy — are
        persisted through the ordinary HCache save path and the token logs
        are extended: storage holds the rows the packed call computed,
        which match a serial ``forward`` within ``BATCHED_DECODE_ATOL``.
        Returns an :class:`~repro.engine.api.IterationResult` whose
        ``next_tokens`` carries every executed session's next greedy
        token; for a prefill chunk that does not complete its prompt the
        entry is the argmax over a mid-prompt row — the caller tracks
        completion and ignores it.  ``model_calls`` is always 1 (the
        fused-iteration contract a regression test pins).

        Decode sessions must be GPU-resident with non-empty histories;
        prefill sessions must be GPU-resident unless they have no history
        at all (a fresh cache is created); a session may appear in only
        one role per iteration.
        """
        chunks = [(sid, np.asarray(tokens)) for sid, tokens in prefill_chunks]
        decode = dict(decode_tokens) if decode_tokens else {}
        if not chunks and not decode:
            raise ConfigError("iteration needs at least one chunk or decode token")
        for _, tokens in chunks:
            if tokens.ndim != 1 or tokens.size == 0:
                raise ConfigError("every prefill chunk must be a non-empty 1-D array")
        roles = [sid for sid, _ in chunks] + list(decode)
        if len(set(roles)) != len(roles):
            raise ConfigError("a session cannot appear twice in one iteration")

        states = [self._resident(sid) for sid, _ in chunks] + [
            self._resident(sid, decoding=True) for sid in decode
        ]
        step_tokens = np.array([int(token) for token in decode.values()], dtype=np.intp)
        segments = [tokens for _, tokens in chunks] + list(step_tokens[:, None])
        caches = [state.kv_cache for state in states]
        # All or nothing: an iteration whose saves cannot fit moves no row.
        storage = self.hcache.storage
        need = sum(storage.append_bytes(s.session_id, seg.size) for s, seg in zip(states, segments))
        storage.check_room(need, "saving the iteration")
        # One kernel under two public names: a decode-only iteration keeps
        # its own, so a traced run can tell decode time from prefill time.
        if chunks:
            packed_call, batch = self.transformer.forward_fused, segments
        else:
            packed_call, batch = self.transformer.decode_batch, step_tokens
        started = time.perf_counter()
        try:
            result = packed_call(batch, caches)
        except RestorationError:
            # The kernel rolled every cache back to its starting length; a
            # session whose restore died gives its slab back and is evicted
            # again (storage still holds its history).
            for state in states:
                if state.kv_cache.landing is not None and state.kv_cache.landing.error is not None:
                    self._drop_cache(state)
            raise
        self._call_s = time.perf_counter() - started
        if chunks:
            # Net of the waits on landing layers (a session gates only this
            # one call: it is settled below), or each early release would
            # stretch the measurement that justifies the next one.
            self._prefill_s = self._call_s - sum(
                cache.landing.blocked_s for cache in caches if cache.landing is not None
            )
        assert result.hidden_states is not None
        start = 0
        for state, segment in zip(states, segments):
            self._settle_restore(state.session_id)
            stop = start + segment.size
            self.hcache.save_states(
                state.session_id,
                [layer_input[start:stop] for layer_input in result.hidden_states],
                segment,
                kv_cache=state.kv_cache,
            )
            state.tokens.extend(int(t) for t in segment)
            start = stop
        return IterationResult(
            next_tokens={
                state.session_id: int(np.argmax(result.logits[b]))
                for b, state in enumerate(states)
            },
            model_calls=1,
        )

    # -- the serving loop's restore seam (repro.engine.api.ServingEngine) --

    def begin_round(self, session_id: str, total_context: int) -> bool:
        """Size the session's cache for an admitted round, or report
        (``True``) that its history is evicted and must be restored first."""
        state = self.session(session_id)
        if state.kv_cache is None:
            if state.tokens:
                return True
            state.kv_cache = self.hcache.arena.cache(self.transformer.config, total_context)
        state.kv_cache.reserve(total_context)
        return False

    def start_restores(
        self, reserve_tokens: Mapping[str, int], *, background: bool
    ) -> None:
        """Begin restoring evicted sessions, each into a cache sized for
        ``reserve_tokens[session_id]`` so its round never recopies history
        (and never has to grow while the restore still writes).

        The sessions restore one after the other, in start order.  With
        an executor they run on its driver thread (granule reads on the
        IO workers, projection GEMMs under released GILs) — while the
        caller keeps iterating when ``background``, all finished before
        this returns otherwise.  Without one they restore here.  Every
        restore is recorded before it runs, and a failure stays in its
        own :class:`RestoreProgress`, inline as on a worker:
        :meth:`finished_restores` raises it.  No iteration may touch a
        session until :meth:`finished_restores` reports it.  Caches are
        bit-identical every way.  A batch naming a session that is not
        evicted and idle raises ``StateError`` before any restore starts
        (:meth:`_check_restorable`).
        """
        session_ids = list(reserve_tokens)
        self._check_restorable(session_ids)
        n_layers = self.transformer.config.n_layers
        progress = {
            sid: RestoreProgress(sid, n_layers, self._restore_changed)
            for sid in session_ids
        }
        self._restoring.update(progress)
        if self.executor is not None:
            self.executor.restore_contexts_async(
                self.hcache, session_ids, reserve_tokens=reserve_tokens, progress=progress
            )
        for sid in session_ids:
            if self.executor is None:
                future: Future[KVCache] = Future()
                future.add_done_callback(progress[sid].settle)
                try:
                    future.set_result(
                        self.hcache.restore(sid, reserve_tokens[sid], progress=progress[sid])
                    )
                except Exception as error:
                    future.set_exception(error)
            elif not background:
                progress[sid].wait()

    def _check_restorable(self, session_ids: Sequence[str]) -> None:
        """The one restore precondition, checked for a whole batch before
        any of its restores starts: each session has history, holds no
        cache (a landing one holds its step handle) and has no restore in
        flight — a second restore of a context would race the first."""
        for sid in session_ids:
            state = self.session(sid)
            if not state.tokens or state.on_gpu or sid in self._restoring:
                raise StateError(
                    f"session {sid!r} is not an evicted, idle session with history"
                )

    def _releasable(self) -> list[str]:
        """The one release rule: a restoring session may join the
        iteration once its restore's predicted remaining time is no
        longer than the last prefill-carrying iteration took — from then
        on the prefill can no longer outrun the layers still landing (the
        bubble-free condition at the restore/prefill boundary) — plus the
        last model call, the horizon to the next decision: a session held
        now would start its prompt one call later, too late to overlap the
        landing layers.  Released now, its first token comes no later (the
        packed kernel waits per layer), and its co-batched decoders wait
        at most one prefill longer.  A restore that has ended has nothing
        remaining."""
        horizon_s = self._prefill_s + self._call_s
        return [
            sid
            for sid, progress in self._restoring.items()
            if progress.remaining_s() <= horizon_s
        ]

    def finished_restores(self) -> list[str]:
        """Sessions an iteration may now name (the one-iteration look-ahead
        of :meth:`_releasable`), made resident on the calling thread —
        workers never touch session state.  One whose restore is still
        streaming steps on a second handle over the restoring cache's
        rows, and the packed kernel waits per layer for its history.  A
        restore that failed raises here, before any other is released
        (they stay recorded for the next call), gives its slab back and
        leaves its session evicted."""
        released = self._releasable()
        for sid in released:
            error = self._restoring[sid].error
            if error is not None:
                self._restoring.pop(sid).release()
                raise error
        for sid in released:
            progress = self._restoring.pop(sid)
            if not progress.settled:
                self.early_releases += 1
            self.session(sid).kv_cache = progress.step_cache
        return released

    def wait_for_restores(self) -> None:
        """Block until restore progress: a layer landing, a completion and
        a failure all notify, and every restore ends in one of the three —
        so there is always a next event while nothing is reportable, and
        no timeout.  Returns per event, not per release: the loop gets to
        admit new arrivals within one layer's time.  "Reportable" is the
        look-ahead rule :meth:`finished_restores` applies, not a stricter
        idle one: both agree on whether there is anything to wait for.
        With no restore in flight no event would ever come: the caller
        waits on a failed restore's session, and ``StateError`` says so."""
        with self._restore_changed:
            if not self._restoring:
                raise StateError("no restore in flight to wait for")
            if not self._releasable():
                self._restore_changed.wait()

    def _settle_restore(self, session_id: str) -> None:
        """Wait out a reported session's restore before its context is
        saved to, sealed or dropped (:meth:`HCacheEngine.restore` allows
        concurrent saves of *other* contexts only).  From here on its
        cache, the landing handle that owns the slab, is an ordinary one;
        a restore that failed after all gives the slab back and raises."""
        state = self.session(session_id)
        landing = state.kv_cache.landing if state.kv_cache is not None else None
        if landing is None:
            return
        landing.wait()
        if landing.error is not None:
            self._drop_cache(state)
            raise landing.error
        state.kv_cache.landing = None

    def evict(self, session_id: str) -> None:
        """Drop a session's GPU state; host storage keeps everything, and
        the cache's slab goes back to the arena for the next restore."""
        state = self.session(session_id)
        if not state.on_gpu:
            raise StateError(f"session {session_id!r} is already evicted")
        self._settle_restore(session_id)
        self.hcache.seal(session_id)
        self._drop_cache(state)

    def _drop_cache(self, state: SessionState) -> None:
        """Give a settled session's slab back; the cache object dies with it."""
        if state.kv_cache is not None:
            state.kv_cache.release()
        state.kv_cache = None

    def close_session(self, session_id: str) -> None:
        """End a conversation and free its storage.

        A restore of it that is still reading that storage, reported by
        :meth:`finished_restores` or not, is waited out first, and its
        outcome discarded: either way its landing handle's slab goes back
        to the arena."""
        state = self.session(session_id)
        progress = self._restoring.pop(session_id, None)
        if progress is not None:
            progress.release()
        elif state.kv_cache is not None and state.kv_cache.landing is not None:
            state.kv_cache.landing.wait()
        self._drop_cache(state)
        self.hcache.drop_context(session_id)
        del self._sessions[session_id]

    def gpu_resident_sessions(self) -> tuple[str, ...]:
        return tuple(s for s, st in self._sessions.items() if st.on_gpu)
