"""Numeric serving engine: real forward passes with HCache state handling.

Where :mod:`repro.engine.serving` models *time*, this engine models
*values*: it runs the numpy transformer for actual multi-round sessions,
saves hidden states through the HCache engine as tokens are produced,
evicts GPU state between rounds, restores it on the next round, and
generates real tokens.  Correctness tests compare its outputs against an
uninterrupted run of the same conversation — they must match exactly,
which is the paper's losslessness claim in executable form.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.hcache import HCacheEngine
from repro.engine.api import IterationResult
from repro.errors import ConfigError, RestorationError, StateError
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.transformer import Transformer
from repro.runtime.executor import RestoreExecutor
from repro.runtime.progress import RestoreProgress


@dataclass(frozen=True)
class _Restoring:
    """One restore begun by ``start_restores``: what it resolves to, and
    which of its layers have landed."""

    future: "Future[KVCache]"
    progress: RestoreProgress


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
        and :meth:`start_restores` brings several evicted sessions back
        concurrently through that one pool.  An executor built with a
        ``shards=(pipeline, tensor)`` shape additionally partitions each
        restoration across that grid — ``chat_round``'s implicit restores
        included.  Restored values are bit-identical in every case.
        """
        if hcache.transformer is not transformer:
            raise ConfigError("HCache engine must wrap the same transformer")
        self.transformer = transformer
        self.hcache = hcache
        self.executor = executor
        self._sessions: dict[str, SessionState] = {}
        #: Restores begun by :meth:`start_restores` and not yet reported
        #: by :meth:`finished_restores`.
        self._restoring: dict[str, _Restoring] = {}
        #: Reported sessions whose restore has not been seen to return:
        #: they step on ``progress.step_cache`` and must not be saved to,
        #: sealed or dropped before :meth:`_settle_restore`.
        self._landing: dict[str, _Restoring] = {}
        #: Notified by every restore on each landed layer and at its end.
        self._restore_changed = threading.Condition()
        #: Wall seconds of the last prefill-carrying iteration, net of the
        #: time it spent waiting on landing layers — what a restore's
        #: predicted remainder is compared with.
        self._prefill_s = 0.0
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
        durable log — the next :meth:`chat_round` restores its KV cache
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

    def chat_round(
        self, session_id: str, prompt_tokens: np.ndarray, n_output_tokens: int
    ) -> list[int]:
        """Serve one conversation round, restoring evicted state if needed.

        Returns the generated token ids.  States of the new prompt and the
        generated tokens are saved to host storage as they are produced
        (layer by layer during the forward pass, matching the paper's
        saving path).
        """
        state = self.session(session_id)
        prompt_tokens = np.asarray(prompt_tokens)
        if prompt_tokens.ndim != 1 or prompt_tokens.size == 0:
            raise ConfigError("prompt must be a non-empty 1-D token array")
        if n_output_tokens <= 0:
            raise ConfigError("output length must be positive")
        self._settle_restore(session_id)

        # The round's final length is known up front: restore into (or
        # reserve) a cache sized for the whole round and one shared capture
        # buffer, so the per-token appends and hidden-state writes below
        # never allocate or recopy history.
        round_tokens = len(state.tokens) + prompt_tokens.size + n_output_tokens
        if state.tokens and not state.on_gpu:
            state.kv_cache = self.hcache.restore(
                session_id, reserve_tokens=round_tokens, executor=self.executor
            )
        capture, logits = self._prefill_round(
            state, prompt_tokens, round_tokens, n_output_tokens
        )
        cache = state.kv_cache
        assert cache is not None

        generated: list[int] = []
        for _ in range(n_output_tokens):
            token = int(np.argmax(logits))
            generated.append(token)
            step = self.transformer.forward(np.array([token]), cache, capture=capture)
            assert step.hidden_states is not None
            self.hcache.save_states(
                session_id, step.hidden_states, np.array([token]), kv_cache=cache
            )
            state.tokens.append(token)
            logits = step.logits[-1]
        return generated

    def _prefill_round(
        self,
        state: SessionState,
        prompt_tokens: np.ndarray,
        round_tokens: int,
        n_output_tokens: int,
    ) -> tuple[HiddenCapture, np.ndarray]:
        """Prefill phase of :meth:`chat_round`.

        Checks the cache/token-log agreement, reserves the round's full
        capacity, forwards the prompt into a round-sized capture buffer,
        persists the prompt's states, and extends the token log.
        Returns the capture (decode steps keep appending to it) and the
        prompt's last-token logits.
        """
        cache = self._resident(state.session_id).kv_cache
        assert cache is not None
        cache.reserve(round_tokens)
        capture = HiddenCapture(
            self.transformer.config.n_layers, self.transformer.config.hidden_size
        )
        capture.reserve(prompt_tokens.size + n_output_tokens)
        result = self.transformer.forward(prompt_tokens, cache, capture=capture)
        assert result.hidden_states is not None
        self.hcache.save_states(
            state.session_id, result.hidden_states, prompt_tokens, kv_cache=cache
        )
        state.tokens.extend(int(t) for t in prompt_tokens)
        return capture, result.logits[-1]

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
            state.kv_cache = KVCache(self.transformer.config)
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
        change from one call to the next.  Each segment's hidden states
        are persisted through the ordinary HCache save path and the token
        logs are extended, so storage contents match the serial engine.
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
        config = self.transformer.config
        captures = [
            HiddenCapture(config.n_layers, config.hidden_size) for _ in states
        ]
        for capture, segment in zip(captures, segments):
            capture.reserve(segment.size)
        # One kernel under two public names: a decode-only iteration keeps
        # its own, so a traced run can tell decode time from prefill time.
        if chunks:
            packed_call, batch = self.transformer.forward_fused, segments
        else:
            packed_call, batch = self.transformer.decode_batch, step_tokens
        started = time.perf_counter()
        try:
            logits = packed_call(batch, caches, captures=captures)
        except RestorationError:
            # The kernel rolled every cache back to its starting length;
            # a session whose restore died is evicted again (storage still
            # holds its history), the others are as they were.
            for state in states:
                restoring = self._landing.get(state.session_id)
                if restoring is not None and restoring.progress.failed:
                    del self._landing[state.session_id]
                    state.kv_cache = None
            raise
        if chunks:
            # Net of the waits on landing layers (a session gates only this
            # one call: it is settled below), or each early release would
            # stretch the measurement that justifies the next one.
            self._prefill_s = time.perf_counter() - started - sum(
                self._landing[state.session_id].progress.blocked_s
                for state in states
                if state.session_id in self._landing
            )
        for b, (state, segment) in enumerate(zip(states, segments)):
            self._settle_restore(state.session_id)
            self.hcache.save_states(
                state.session_id,
                captures[b].block_views(0, segment.size),
                segment,
                kv_cache=state.kv_cache,
            )
            state.tokens.extend(int(t) for t in segment)
        return IterationResult(
            next_tokens={
                state.session_id: int(np.argmax(logits[b]))
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
            state.kv_cache = KVCache(self.transformer.config)
        state.kv_cache.reserve(total_context)
        return False

    def start_restores(
        self, reserve_tokens: Mapping[str, int], *, background: bool
    ) -> None:
        """Begin restoring evicted sessions, each into a cache sized for
        ``reserve_tokens[session_id]`` so its round never recopies history
        (and never has to grow while the restore still writes).

        With an executor the sessions restore concurrently through its
        pool (granule reads on the IO workers, projection GEMMs on driver
        threads under released GILs) — while the caller keeps iterating
        when ``background``, as one burst finished before this returns
        otherwise.  Without one they restore here, one after the other.
        No iteration may touch a session until :meth:`finished_restores`
        reports it.  Caches are bit-identical every way.
        """
        session_ids = list(reserve_tokens)
        n_layers = self.transformer.config.n_layers
        progress = {
            sid: RestoreProgress(sid, n_layers, self._restore_changed)
            for sid in session_ids
        }
        if self.executor is None:
            futures: dict[str, Future[KVCache]] = {}
            for sid in session_ids:
                futures[sid] = Future()
                futures[sid].set_result(
                    self.hcache.restore(sid, reserve_tokens[sid], progress=progress[sid])
                )
                futures[sid].add_done_callback(progress[sid].settle)
        else:
            futures = self.executor.restore_contexts_async(
                self.hcache, session_ids, reserve_tokens=reserve_tokens, progress=progress
            )
            if not background:
                wait(futures.values())
        for sid in session_ids:
            self._restoring[sid] = _Restoring(futures[sid], progress[sid])

    def _releasable(self) -> list[str]:
        """The one release rule: a restoring session may join the
        iteration once its restore's predicted remaining time is no
        longer than the last prefill-carrying iteration took — from then
        on the prefill can no longer outrun the layers still landing (the
        bubble-free condition at the restore/prefill boundary).  A
        restore that has ended has nothing remaining."""
        return [
            sid
            for sid, restoring in self._restoring.items()
            if restoring.progress.remaining_s() <= self._prefill_s
        ]

    def finished_restores(self) -> list[str]:
        """Sessions an iteration may now name (see :meth:`_releasable`),
        made resident on the calling thread — workers never touch session
        state.  One whose restore is still streaming steps on a second
        handle over the restoring cache's rows, and the packed kernel
        waits per layer for its history; a restore that failed raises
        here and leaves its session evicted."""
        released = self._releasable()
        for sid in released:
            restoring = self._restoring.pop(sid)
            if restoring.future.done():
                restoring.future.result()
            else:
                self.early_releases += 1
            self.session(sid).kv_cache = restoring.progress.step_cache
            self._landing[sid] = restoring
        return released

    def wait_for_restores(self) -> None:
        """Block until restore progress: a layer landing, a completion and
        a failure all notify, and every restore ends in one of the three —
        so there is always a next event while nothing is reportable, and
        no timeout.  Returns per event, not per release: the loop gets to
        admit new arrivals within one layer's time."""
        with self._restore_changed:
            if self._restoring and not self._releasable():
                self._restore_changed.wait()

    def _settle_restore(self, session_id: str) -> None:
        """Wait out a reported session's restore before its context is
        saved to, sealed or dropped (:meth:`HCacheEngine.restore` allows
        concurrent saves of *other* contexts only).  From here on its
        cache is an ordinary one; a restore that failed after all leaves
        the session evicted and raises."""
        restoring = self._landing.pop(session_id, None)
        if restoring is None:
            return
        state = self.session(session_id)
        assert state.kv_cache is not None
        error = restoring.future.exception()
        if error is not None:
            state.kv_cache = None
            raise error
        state.kv_cache.landing = None

    def evict(self, session_id: str) -> None:
        """Drop a session's GPU state; host storage keeps everything."""
        state = self.session(session_id)
        if not state.on_gpu:
            raise StateError(f"session {session_id!r} is already evicted")
        self._settle_restore(session_id)
        self.hcache.seal(session_id)
        state.kv_cache = None

    def close_session(self, session_id: str) -> None:
        """End a conversation and free its storage."""
        state = self.session(session_id)
        self._settle_restore(session_id)
        state.kv_cache = None
        self.hcache.drop_context(session_id)
        del self._sessions[session_id]

    def gpu_resident_sessions(self) -> tuple[str, ...]:
        return tuple(s for s, st in self._sessions.items() if st.on_gpu)
