"""Two runs of one seed ask for, and count, exactly the same work."""

import time

import numpy as np
import pytest

from servingbench.worker import run_workload
from servingbench.workloads import WORKLOADS, make_script

#: Per-layer counts the script fixes.  Iteration and model-call counts are
#: not among them where restores finish on their own threads: which step a
#: restored session joins depends on timing.
SCRIPT_COUNTS = (
    "core.restores",
    "core.restored_tokens",
    "core.saved_tokens",
    "core.save_states_calls",
    "engine.evictions",
    "engine.rejected",
    "models.project_kv_calls",
    "models.project_kv_rows",
    "models.project_kv_flops",
    "models.project_kv_bytes",
    "runtime.io_tasks",
    "storage.append_calls",
    "storage.bytes_written",
    "storage.bytes_read",
    "storage.read_granule_calls",
    "storage.degraded_reads",
    "storage.bytes_per_token",
    "core.restore_exact_rate",
)
#: With no restore threads the whole step sequence is fixed as well.
SYNCHRONOUS_COUNTS = SCRIPT_COUNTS + (
    "engine.iterations",
    "engine.idle_polls",
    "engine.batch_size_mean",
    "engine.prefill_tokens_per_iter_mean",
    "models.forward_fused_calls",
    "models.decode_batch_calls",
    "trace.spans",
)


def smoke(name, trace, seed=3):
    return run_workload(name, seed, trace, True, time.perf_counter())


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for workload in WORKLOADS.values():
        a, b, c = (make_script(workload, s, 4096) for s in (1, 1, 2))
        for x, y in zip(a.users, b.users):
            for p, q in zip(x, y):
                assert np.array_equal(p.prompt, q.prompt)
                assert p.max_new_tokens == q.max_new_tokens
        assert not np.array_equal(a.users[0][0].prompt, c.users[0][0].prompt)


def lengths(script):
    return [[r.max_new_tokens for r in user] for user in script.users]


def test_the_seed_orders_the_output_lengths_but_not_the_total_work():
    for workload in WORKLOADS.values():
        scripts = [make_script(workload, seed, 4096) for seed in range(8)]
        # some seed sends the lengths in another order ...
        assert len({str(lengths(s)) for s in scripts}) > 1
        for script in scripts:
            # ... but every seed deals the same multisets, one per user,
            assert sorted(sorted(u) for u in lengths(script)) == sorted(
                sorted(u) for u in workload.length_sets
            )
            # every user asks for the same total,
            assert len({sum(u) for u in lengths(script)}) == 1
            # and every length lies within +-50 % of the mean.
            mean = sum(map(sum, lengths(script))) / workload.requests_per_pass
            assert all(0.5 * mean <= n <= 1.5 * mean for u in lengths(script) for n in u)


def test_every_pass_sends_the_same_requests_in_an_order_of_its_own():
    for workload in WORKLOADS.values():
        script = make_script(workload, 5, 4096)
        passes = [script.ordered(index) for index in range(5)]
        for ordered in passes:
            for before, after in zip(script.users, ordered.users):
                # the same requests (same sessions, prompts and lengths) ...
                assert sorted(r.round for r in after) == [r.round for r in before]
                assert all(r is before[r.round] for r in after)
        # ... in an order that differs between passes and repeats for one pass
        assert len({str(lengths(ordered)) for ordered in passes}) > 1
        assert lengths(script.ordered(3)) == lengths(passes[3])
        assert set(script.ordered(0).session_ids("p")) == set(script.session_ids("p"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_two_runs_of_one_seed(name):
    first, second = smoke(name, trace=True), smoke(name, trace=True)
    for result in (first, second):
        assert result.correct, result.problems
        assert result.failed == 0
        assert result.attempted == WORKLOADS[name].requests_per_pass
    assert first.phases == second.phases
    names = SCRIPT_COUNTS if WORKLOADS[name].expects_restores else SYNCHRONOUS_COUNTS
    for metric in names:
        assert first.per_layer[metric]["value"] == second.per_layer[metric]["value"], metric
    restores = first.per_layer["core.restores"]["value"]
    if WORKLOADS[name].expects_restores:
        assert restores == WORKLOADS[name].requests_per_pass
    else:
        assert restores == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(name):
    from servingbench.worker import END_TO_END

    result = smoke(name, trace=False)
    assert result.correct, result.problems
    assert list(result.end_to_end) == list(END_TO_END)
    assert result.end_to_end["token_match_rate"]["value"] == 1.0
    assert result.counts["requests_per_pass"] == WORKLOADS[name].requests_per_pass
