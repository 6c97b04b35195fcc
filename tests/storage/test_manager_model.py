"""Model-based test of a journaled storage manager (hypothesis stateful).

Random sequences of register, append (0 rows included), seal, ``free_run``,
free, ``compact_journal`` and crash-and-recover drive a journaled
:class:`StorageManager` next to a plain-Python model of what it should
hold.  After every step:

- the live manifest (``manifest_state()``) equals the fold of the
  journal's records — what a crash right now would replay;
- every run loads exactly the rows appended to it, cut after a recover to
  the context's durable count: the shortest run's full chunks plus the
  tail rows its last seal put on a device.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.simulator.hardware import GB, SSDSpec
from repro.storage import ManifestJournal, StorageArray, StorageManager

CPC = 4  # a small chunk, so short sequences cross many chunk boundaries
N_LAYERS = 2
HIDDEN = 3
SPEC = SSDSpec("m-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB, capacity_bytes=1 * GB)

CONTEXTS = st.sampled_from(["a", "b"])
RUN_KEYS = st.tuples(st.integers(0, N_LAYERS - 1), st.sampled_from(["hidden", "kv"]))


class _ModelRun:
    """What one run should hold: its rows and its rows sealed on a device."""

    def __init__(self, width: int) -> None:
        self.rows = np.empty((0, width), dtype=np.float32)
        #: Tail rows the last seal wrote to the current tail slot; a
        #: refilled slot (a full chunk) replaces them.
        self.device_tail = 0

    @property
    def durable(self) -> int:
        return len(self.rows) // CPC * CPC + self.device_tail


class JournaledManagerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="manager-model-")
        self.array = StorageArray([SPEC, SPEC], link_bandwidth=8 * GB)
        self.journal = ManifestJournal(self.directory)
        self.manager = StorageManager(self.array, tokens_per_chunk=CPC, journal=self.journal)
        self.runs: dict[str, dict[tuple[int, str], _ModelRun]] = {}
        self.tokens: dict[str, int] = {}
        self.seed = 0

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- rules ---------------------------------------------------------

    @rule(cid=CONTEXTS)
    def register(self, cid: str) -> None:
        if cid in self.runs:
            return
        self.manager.register_context(cid, n_layers=N_LAYERS, hidden_width=HIDDEN)
        self.runs[cid] = {}
        self.tokens[cid] = 0

    @precondition(lambda self: self.runs)
    @rule(data=st.data(), run_key=RUN_KEYS, n=st.integers(0, 2 * CPC + 1))
    def append(self, data, run_key: tuple[int, str], n: int) -> None:
        cid = data.draw(st.sampled_from(sorted(self.runs)))
        layer, kind = run_key
        width = HIDDEN if kind == "hidden" else 2 * HIDDEN
        run = self.runs[cid].setdefault(run_key, _ModelRun(width))
        self.seed += 1
        block = np.random.default_rng(self.seed).normal(size=(n, width)).astype(np.float32)
        # Token ids are journaled ahead of the rows, as the engine does.
        end = len(run.rows) + n
        if end > self.tokens[cid]:
            self.manager.journal_tokens(cid, range(self.tokens[cid], end))
            self.tokens[cid] = end
        if end // CPC > len(run.rows) // CPC:
            run.device_tail = 0
        self.manager.append(cid, layer, block, kind=kind)
        run.rows = np.concatenate([run.rows, block])

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def seal(self, data) -> None:
        cid = data.draw(st.sampled_from(sorted(self.runs)))
        self.manager.seal_context(cid)
        for run in self.runs[cid].values():
            run.device_tail = len(run.rows) % CPC

    @precondition(lambda self: any(self.runs.values()))
    @rule(data=st.data())
    def free_run(self, data) -> None:
        cid = data.draw(st.sampled_from(sorted(c for c, runs in self.runs.items() if runs)))
        run_key = data.draw(st.sampled_from(sorted(self.runs[cid])))
        self.manager.free_run(cid, *run_key)
        del self.runs[cid][run_key]

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def free(self, data) -> None:
        cid = data.draw(st.sampled_from(sorted(self.runs)))
        self.manager.free_context(cid)
        del self.runs[cid]
        del self.tokens[cid]

    @rule()
    def compact(self) -> None:
        self.manager.compact_journal()

    @rule()
    def crash_and_recover(self) -> None:
        self.journal.close()
        self.journal = ManifestJournal(self.directory)
        self.manager = StorageManager.recover(self.array, self.journal, tokens_per_chunk=CPC)
        for cid, runs in self.runs.items():
            durable = min((run.durable for run in runs.values()), default=self.tokens[cid])
            self.tokens[cid] = durable
            for run in runs.values():
                # A sealed tail survives as one only if the cut lands
                # exactly on it; salvaged rows are back in host RAM.
                rem = durable % CPC
                same_slot = durable // CPC == len(run.rows) // CPC
                run.device_tail = rem if same_slot and rem == run.device_tail else 0
                run.rows = run.rows[:durable]

    # -- invariants ----------------------------------------------------

    @invariant()
    def live_manifest_is_the_journal_fold(self) -> None:
        assert self.manager.manifest_state().to_payload() == self.journal.replay().to_payload()

    @invariant()
    def runs_hold_their_rows(self) -> None:
        assert set(self.manager.context_ids()) == set(self.runs)
        for cid, runs in self.runs.items():
            assert len(self.manager.token_log(cid)) == self.tokens[cid]
            for (layer, kind), run in runs.items():
                assert self.manager.tokens_stored(cid, layer, kind) == len(run.rows)
                assert np.array_equal(self.manager.load_layer(cid, layer, kind), run.rows)


JournaledManagerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestJournaledManager = JournaledManagerMachine.TestCase
