"""Model-based test of a journaled storage manager (hypothesis stateful).

Random sequences of register (with a drawn, non-empty subset of the
context's runs), append (0 rows included), seal, an append or a seal
whose first write to one device faults, free, ``compact_journal`` and
crash-and-recover drive a journaled :class:`StorageManager` next to a
plain-Python model of what it should hold.  After every step:

- the fold of the manager's durable records (what compaction would
  write) equals the fold of the journal's records (what a crash right
  now would replay);
- every run loads exactly the rows appended to it, cut after a recover to
  the context's durable count: the shortest run's full chunks plus the
  tail rows its last seal put on a device;
- the devices hold each run's full chunks and its last sealed partial,
  and nothing else.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import DeviceFault
from repro.simulator.hardware import GB, SSDSpec
from repro.storage import ChunkKey, FaultPolicy, ManifestJournal, StorageArray, StorageManager

CPC = 4  # a small chunk, so short sequences cross many chunk boundaries
N_LAYERS = 2
HIDDEN = 3
DEVICES = 2
SPEC = SSDSpec("m-ssd", read_bandwidth=3 * GB, write_bandwidth=1 * GB, capacity_bytes=1 * GB)

CONTEXTS = st.sampled_from(["a", "b"])
RUN_KEYS = [(layer, kind) for layer in range(N_LAYERS) for kind in ("hidden", "kv")]


def folded(records) -> dict:
    """What ``records`` fold to: each context's meta, token log and runs
    as ``(n_tokens, device_tail_rows, crcs)``."""
    fold = StorageManager(StorageArray([SPEC], link_bandwidth=8 * GB), tokens_per_chunk=CPC)
    for record in records:
        fold._apply(record)
    return {
        cid: (
            ctx.meta,
            tuple(ctx.tokens),
            {key: (run.n_tokens, run.device_tail_rows, run.crcs) for key, run in ctx.runs.items()},
        )
        for cid, ctx in fold._contexts.items()
    }


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
        self.array = StorageArray([SPEC] * DEVICES, link_bandwidth=8 * GB)
        self.journal = ManifestJournal(self.directory)
        self.manager = StorageManager(self.array, tokens_per_chunk=CPC, journal=self.journal)
        self.runs: dict[str, dict[tuple[int, str], _ModelRun]] = {}
        self.tokens: dict[str, int] = {}
        self.seed = 0
        #: The device whose next write faults, while a fault is armed.
        self.armed: int | None = None

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def fails(self, index: int, layer: int) -> bool:
        """Whether the write of ``layer``'s chunk ``index`` meets the armed
        fault, which it disarms."""
        if (index + layer) % DEVICES != self.armed:
            return False
        self.armed = None
        return True

    # -- rules ---------------------------------------------------------

    @rule(cid=CONTEXTS, data=st.data())
    def register(self, cid: str, data) -> None:
        if cid in self.runs:
            return
        keys = data.draw(st.lists(st.sampled_from(RUN_KEYS), min_size=1, unique=True))
        self.manager.register_context(cid, n_layers=N_LAYERS, hidden_width=HIDDEN, runs=keys)
        self.runs[cid] = {key: _ModelRun(HIDDEN * (1 + (key[1] == "kv"))) for key in keys}
        self.tokens[cid] = 0

    def pick_run(self, data) -> tuple[str, int, str]:
        cid = data.draw(st.sampled_from(sorted(self.runs)))
        return (cid, *data.draw(st.sampled_from(list(self.runs[cid]))))

    def slot_device(self, cid: str, layer: int, kind: str) -> int:
        """The device of the run's current slot: where a refill or a
        reseal of its tail is written."""
        return (len(self.runs[cid][layer, kind].rows) // CPC + layer) % DEVICES

    def faulted(self, device: int, step) -> None:
        """Run ``step`` with the next write to ``device`` faulting."""
        self.armed = device
        self.array.replica(device).fault_policy = FaultPolicy(fail_writes=[1])
        try:
            step()
        finally:
            self.array.replica(device).fault_policy = None
            self.armed = None

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def append(self, data) -> None:
        self.append_to(data, *self.pick_run(data))

    def append_to(self, data, cid: str, layer: int, kind: str, least: int = 0) -> None:
        n = data.draw(st.integers(least, 2 * CPC + 1))
        run = self.runs[cid][layer, kind]
        self.seed += 1
        block = np.random.default_rng(self.seed).normal(size=(n, run.rows.shape[1]))
        block = block.astype(np.float32)
        # Token ids are journaled ahead of the rows, as the engine does.
        end = len(run.rows) + n
        if end > self.tokens[cid]:
            self.manager.journal_tokens(cid, range(self.tokens[cid], end))
            self.tokens[cid] = end
        # Every chunk the block completes is one write; rows land up to
        # the chunk whose write faults.
        landed = end
        for index in range(len(run.rows) // CPC, end // CPC):
            if self.fails(index, layer):
                landed = max(len(run.rows), index * CPC)
                break
        if landed < end:
            with pytest.raises(DeviceFault):
                self.manager.append(cid, layer, block, kind=kind)
        else:
            self.manager.append(cid, layer, block, kind=kind)
        if landed // CPC > len(run.rows) // CPC:
            run.device_tail = 0
        run.rows = np.concatenate([run.rows, block[: landed - len(run.rows)]])

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def seal(self, data) -> None:
        self.seal_context(data.draw(st.sampled_from(sorted(self.runs))))

    def seal_context(self, cid: str) -> None:
        runs = self.runs[cid]
        # One write per grown tail, in registration order; a faulted seal
        # changes nothing.
        if any(
            self.fails(len(run.rows) // CPC, layer)
            for (layer, _), run in runs.items()
            if len(run.rows) % CPC != run.device_tail
        ):
            with pytest.raises(DeviceFault):
                self.manager.seal_context(cid)
            return
        self.manager.seal_context(cid)
        for run in runs.values():
            run.device_tail = len(run.rows) % CPC

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def faulted_append(self, data) -> None:
        """An append that completes its run's current slot, whose write
        faults: the refill of a sealed partial, where a run has one."""
        sealed = [
            (cid, layer, kind)
            for cid, runs in sorted(self.runs.items())
            for (layer, kind), run in runs.items()
            if run.device_tail
        ]
        cid, layer, kind = data.draw(st.sampled_from(sealed)) if sealed else self.pick_run(data)
        least = CPC - len(self.runs[cid][layer, kind].rows) % CPC
        self.faulted(
            self.slot_device(cid, layer, kind),
            lambda: self.append_to(data, cid, layer, kind, least),
        )

    @precondition(lambda self: self.runs)
    @rule(data=st.data())
    def faulted_seal(self, data) -> None:
        """A seal whose first write to the device of its last tail write
        faults, after any tails written to the other device landed."""
        cid = data.draw(st.sampled_from(sorted(self.runs)))
        grown = [
            self.slot_device(cid, layer, kind)
            for (layer, kind), run in self.runs[cid].items()
            if len(run.rows) % CPC != run.device_tail
        ]
        self.faulted(grown[-1] if grown else 0, lambda: self.seal_context(cid))

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
            durable = min(run.durable for run in runs.values())
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
    def durable_records_fold_like_the_journal(self) -> None:
        assert folded(self.manager.durable_records()) == folded(self.journal.replay())

    @invariant()
    def runs_hold_their_rows(self) -> None:
        assert set(self.manager.context_ids()) == set(self.runs)
        for cid, runs in self.runs.items():
            assert len(self.manager.token_log(cid)) == self.tokens[cid]
            assert self.manager.runs(cid) == tuple(runs)
            for (layer, kind), run in runs.items():
                assert self.manager.tokens_stored(cid, layer, kind) == len(run.rows)
                assert np.array_equal(self.manager.load_layer(cid, layer, kind), run.rows)

    @invariant()
    def devices_hold_each_durable_chunk_once(self) -> None:
        held = {key for device in self.array.devices for key in device.keys()}
        expected = set()
        for cid, runs in self.runs.items():
            for (layer, kind), run in runs.items():
                full = len(run.rows) // CPC
                expected.update(ChunkKey(cid, layer, i, kind) for i in range(full))
                if run.device_tail:
                    expected.add(ChunkKey(cid, layer, full, kind, run.device_tail))
        assert held == expected


JournaledManagerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestJournaledManager = JournaledManagerMachine.TestCase
