#!/usr/bin/env bash
# Local + CI gate: bytecode-compile, lint (ruff + repro.lint), types,
# tier-1 tests, doc freshness, the examples, the hot-path gate, serving
# benchmark smoke + self-tests.
#
# Run this before sending a PR; .github/workflows/ci.yml runs exactly
# this script on every push/PR.  The compileall pass catches
# syntax-level breakage in modules no test imports.  Three analysis
# gates follow:
#   - ruff with the repo config in pyproject.toml (style/pyflakes);
#   - `python -m repro.lint src` — the project-specific invariant
#     checker (lock discipline, §6.2 commit-point ordering, hot-path
#     allocation and clock-read bans — no in-band timing in the
#     kernels — exception safety, __all__ drift, unused imports
#     and undefined names — ruff's F401 and F821, so a local run without
#     ruff still catches a stale import or a reference to a deleted
#     name); zero findings required, deliberate exceptions carry
#     in-source waivers;
#   - mypy, non-strict, over repro.storage + repro.runtime.
# ruff and mypy are optional *locally* (skipped with a notice via
# require_or_skip below) but REQUIRED in CI: a missing tool there is a
# broken pipeline, not a soft skip.  repro.lint ships with the repo and
# always runs.  The doc check keeps README.md's module map pointing at
# packages that actually exist (and vice versa), and every dotted
# repro.* name and tests/*.py path in README.md, docs/ARCHITECTURE.md and
# benchmarks/README.md resolving to a file and a definition (by AST).  The hot-path gate
# (benchmarks/bench_hotpath.py, a few seconds, one run shape) asserts
# the six checks nothing else makes:
#   - the PR-1 O(n) floor: the decode-with-capture state path is >= 10x
#     the naive concatenate-growth path at 4k tokens;
#   - the token-sourced layer 0, by exact counts: the default engine's
#     devices hold (N-1)*hidden*4 bytes per token, a restore issues
#     (N-1)*ceil(n/64) chunk reads, and it restores the all-stored
#     engine's bits;
#   - slab reuse, by exact counts: a default restore allocates one K/V
#     slab pair cold, and none once an eviction has given one back;
#   - prefill parts, by exact count and bits: a 256-row bench-mid packed
#     call runs in min(usable CPUs // BLAS threads, 2) row parts and is
#     bit-identical to the same call forced into one part (its wall-clock
#     ratio is printed, not gated);
#   - the token replay, by exact counts and bits: a bench-mid r = 3
#     restore of 300 tokens replays in two row chunks, one packed call
#     of part_count(chunk rows) parts each, with no layer_forward call,
#     and restores the serial prefill's K/V bit for bit (its wall clock
#     is printed, not gated);
#   - the restore burst, by exact counts and bits: four bench-mid
#     512-token restores started at once on an emulated 0.1 GB/s device
#     complete in start order on one driver thread, each bit-identical
#     to an inline restore (mean completion and makespan printed, not
#     gated).
# The tier-1 step runs with TMPDIR set to a fresh `mktemp -d` directory:
# every storage device keeps its chunk files in a private repro-dev*
# directory under TMPDIR and removes it when the device is collected or
# at interpreter exit, so any repro-dev* directory left there after the
# tests is a leak, and fails the gate.
# Restore exactness in every shape, batched-decode equivalence,
# failover, recovery and the front end's token streams
# are tier-1 tests; speed is the serving benchmark's job.  The paper's
# figure, table and ablation benches (benchmarks/bench_{fig,tab,abl}*.py,
# about 8 s with timing disabled) run as their own step: they need the
# pytest-benchmark plugin, which CI installs and requires like ruff and
# mypy.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# require_or_skip <module> <command...> — run <command...> if the python
# module <module> is importable.  Missing tool: hard failure in CI
# (GitHub Actions sets CI=true), soft skip with a notice locally.  All
# optional-tool gating goes through this one helper so local and CI
# behaviour can never drift per-tool.
require_or_skip() {
    local module="$1"
    shift
    if python -c "import ${module}" >/dev/null 2>&1; then
        "$@"
    elif [ "${CI:-}" = "true" ]; then
        echo "error: '${module}' is required in CI but is not installed" \
             "(pip install -r requirements-dev.txt)" >&2
        exit 1
    else
        echo "${module} not installed; skipping locally (CI enforces it" \
             "— pip install -r requirements-dev.txt)"
    fi
}

echo "== bytecode compile =="
python -m compileall -q src benchmarks scripts

echo "== lint (ruff) =="
require_or_skip ruff python -m ruff check src tests benchmarks scripts

echo "== invariant lint (repro.lint: guarded-by, commit-point, hot-path, exception-safety, api-surface, frontend-api, unused-import, undefined-name) =="
python -m repro.lint src

echo "== types (mypy, non-strict, repro.storage + repro.runtime) =="
require_or_skip mypy python -m mypy

echo "== tier-1 tests (then: no device directory left behind) =="
tier1_tmp="$(mktemp -d)"
trap 'rm -rf "$tier1_tmp"' EXIT
TMPDIR="$tier1_tmp" python -m pytest -x -q
if compgen -G "$tier1_tmp/repro-dev*" > /dev/null; then
    echo "error: tier-1 left storage device directories behind:" >&2
    ls -d "$tier1_tmp"/repro-dev* >&2
    exit 1
fi
# The src/ line count, so a simplicity change's before/after can be read
# straight from the log (no gate: compare it with the parent's run).
echo "src/ lines: $(find src -name '*.py' | xargs cat | wc -l)"

echo "== doc freshness (README module map vs src/repro, code references in the docs) =="
python scripts/check_docs.py

# The crash-safety surfaces get their own named gate even though tier-1
# already includes these files: a recovery regression should fail with
# "crash-recovery smoke" in the log, not as one -x casualty among ~1.8k
# tests, and this stays green even if the tier-1 invocation above is
# ever narrowed.
echo "== crash-recovery smoke (journal truncation property, crash-window recovery, journaled-manager model, kill-and-resume, mirrored writes and failover, failed restores in the serving loop, a full storage tier) =="
python -m pytest -q tests/storage/test_journal.py tests/storage/test_recovery.py \
    tests/storage/test_manager_model.py tests/integration/test_kill_and_resume.py \
    tests/storage/test_faults_replication.py tests/engine/test_restore_failures.py \
    tests/engine/test_storage_pressure.py

# The restore's IO/compute order gets its own named gate too: the
# virtual-clock twin runs the real restore on a fake IO pool and bounds
# its makespan by two_stream_timing's, so a restore that stops following
# the walk fails with "restore follows the walk" in the log.
echo "== restore follows the walk (virtual-clock twin of two_stream_timing: every r <= 1 scheme, r = 2 and 3 with and without a KV suffix, pure recompute; 0.1 to 3 GB/s) =="
python -m pytest -q tests/core/test_restore_follows_walk.py

echo "== paper figure/table/ablation benches (expectations asserted, timing disabled) =="
figures_start="$(date +%s.%N)"
require_or_skip pytest_benchmark python -m pytest -q benchmarks/bench_fig*.py \
    benchmarks/bench_tab*.py benchmarks/bench_abl*.py --benchmark-disable
figures_end="$(date +%s.%N)"
# The digests let a "figure outputs are byte-identical" claim, and the
# wall seconds a "the figures cost no more" claim, be read straight from
# the log (no gate: compare them with the parent commit's run).
if compgen -G "benchmarks/results/*.txt" > /dev/null; then
    sha256sum benchmarks/results/*.txt
fi
echo "figure step: $(awk -v s="$figures_start" -v e="$figures_end" 'BEGIN { printf "%.1f", e - s }') s"

# The examples are the README's walkthroughs (the quickstart lives only
# there); each runs in well under a second, so a stale call in one fails
# here instead of in a reader's terminal.
echo "== examples (each examples/*.py runs to completion) =="
for example in examples/*.py; do
    python "$example" > /dev/null
done

echo "== hot-path gate (state path >= 10x naive at 4k + layer-0 storage/read counts + slab reuse + prefill parts + token replay + restore burst order) =="
python benchmarks/bench_hotpath.py

# The serving benchmark (BENCHMARK.json's command) is what performance PRs
# are judged by, so its plumbing gets its own named step: the smoke run
# drives the real front end on a tiny model in seconds (it measures
# nothing), and the package's self-tests — outside tier-1 — include the
# BENCHMARK.json-vs-code consistency check.
echo "== serving benchmark (plumbing smoke + self-tests; no timing gate) =="
python benchmarks/serving/run.py --smoke
python -m pytest benchmarks/serving/tests -q

echo "all checks passed"
