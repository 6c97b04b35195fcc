"""One workload, one process: set-up, warm-up, measured passes, checks.

A run is: set-up (model, rig, template prefill, oracle, warm-up) ->
``MEASURED_PASSES`` passes of one fixed script.  Every timing metric is
computed per pass and reported as the median over passes, with min and max
alongside; the two rates are taken over all measured requests; counts are
fixed by the script.  With ``trace`` on, every second pass runs with the
span wrappers installed: the traced passes give the per-layer metrics, the
untraced ones the reference throughput for the tracing overhead.
End-to-end metrics only ever come from untraced passes.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.models.transformer import Transformer

from . import hostprobe, layers, stats
from .driver import ClosedLoopDriver, PassRecord
from .layers import TBT_TAIL, TTFT_TAIL
from .oracle import Oracle
from .rig import (
    BENCH_MODEL,
    SMOKE_MODEL,
    WEIGHT_SEED,
    Rig,
    Template,
    build_kv_offload_engine,
    build_rig,
    clone_evicted_session,
    make_template,
)
from .tracing import Tracer, write_chrome_trace
from .workloads import (
    MEASURED_PASSES,
    RESIDENT_CLONE,
    WARMUP_ROUNDS,
    WORKLOADS,
    Script,
    Workload,
    make_script,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results" / "serving"

#: name -> (unit, better, bound): the frozen end-to-end contract.  A bound
#: is the share of the parent's median a later change may lose.  Quantities
#: the script fixes keep the bounds of the issue; every measured time, rate
#: and size has the largest bound a contract may carry, because two sets of
#: runs of identical code on this shared host differ by up to ~18 % (README,
#: "How steady is it").
END_TO_END: dict[str, tuple[str, str, float]] = {
    "ttft_p50_ms": ("ms", "lower", 0.25),
    "tbt_p50_ms": ("ms", "lower", 0.25),
    "req_per_s": ("1/s", "higher", 0.25),
    "cpu_ms_per_req": ("ms", "lower", 0.25),
    "slo_attainment": ("share", "higher", 0.05),
    "token_match_rate": ("share", "higher", 0.02),
    "storage_bytes_per_token": ("B/tok", "lower", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
}
#: The tails are demoted: identical code disagrees about them by more than
#: any bound a contract may carry (README).  Untraced runs still compute,
#: print and store them; traced runs report them as per-layer metrics.
TAILS: dict[str, str] = {"ttft_p75_ms": "ms", "tbt_p90_ms": "ms"}


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    smoke: bool
    passes: int
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: name -> {"unit", "value" (median over passes), "min", "max", "per_pass"}
    end_to_end: dict[str, dict[str, Any]] = field(default_factory=dict)
    tails: dict[str, dict[str, Any]] = field(default_factory=dict)
    per_layer: dict[str, dict[str, Any]] = field(default_factory=dict)
    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    modality: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)

    def contract_line(self) -> str:
        """The one JSON object the driver reads from the last line."""
        source = self.per_layer if self.trace else self.end_to_end
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in source.items()
                },
            }
        )


class _Run:
    """State of one workload run; methods are its phases, in order."""

    def __init__(
        self, workload: Workload, seed: int, trace: bool, smoke: bool, process_start: float
    ) -> None:
        self.workload = workload
        self.trace = trace
        self.smoke = smoke
        self.process_start = process_start
        self.result = RunResult(
            workload.name, seed, trace, smoke, 1 if smoke else MEASURED_PASSES
        )
        self.checks = layers.RestoreChecks()
        config = SMOKE_MODEL if smoke else BENCH_MODEL
        start = time.perf_counter()
        self.script = make_script(workload, seed, config.vocab_size)
        self.script_seconds = time.perf_counter() - start
        self.model = Transformer.from_seed(config, WEIGHT_SEED)
        self.rig: Rig = build_rig(self.model, evict_on_finish=workload.evict_on_finish)
        self.driver = ClosedLoopDriver(self.rig.frontend)
        self.template: Template | None = None
        self.oracle: Oracle | None = None

    # -- set-up --------------------------------------------------------

    def set_up(self) -> None:
        if self.script.history is not None:
            self.template = make_template(self.model, self.script.history)
        self.oracle = Oracle(self.model, self.script, self.template)
        if self.template is not None:
            self._sample_sync_restore()
        warmup = self.script.truncated(WARMUP_ROUNDS)
        self._prepare_sessions(warmup, "warmup")
        record = self.driver.run_pass(warmup, "warmup")
        self._judge(record, "warmup")
        self._close_sessions(warmup, "warmup")
        # Set-up garbage must not be collected inside a measured pass, and
        # the long-lived objects need not be traversed again.
        gc.collect()
        gc.freeze()

    def _sample_sync_restore(self) -> None:
        """One synchronous restore of a clone, compared bit for bit."""
        assert self.template is not None
        clone_evicted_session(self.rig, self.template, "exactness-sample")
        cache = self.rig.hcache.restore("exactness-sample", executor=self.rig.executor)
        self.checks.check(cache, self.template)
        self.rig.engine.close_session("exactness-sample")

    def _prepare_sessions(self, script: Script, label: str) -> None:
        """Untimed: the evicted or resident histories a pass starts from."""
        if self.template is None:
            return
        for session_id in script.session_ids(label):
            clone_evicted_session(self.rig, self.template, session_id)
            if self.workload.sessions == RESIDENT_CLONE:
                # What a restore leaves behind, without paying for one per
                # request per pass: restores are bit-exact against the
                # template (checked in set-up), so a copy of its cache is
                # the restored cache.
                state = self.rig.engine.session(session_id)
                state.kv_cache = copy.deepcopy(self.template.cache)

    def _close_sessions(self, script: Script, label: str) -> None:
        for session_id in script.session_ids(label):
            if self.rig.engine.has_session(session_id):
                self.rig.engine.close_session(session_id)

    # -- judging -------------------------------------------------------

    def _judge(self, record: PassRecord, phase: str) -> dict[str, int]:
        """Check one pass's outputs; returns its sent/succeeded/failed/match counts."""
        assert self.oracle is not None
        sent = len(record.requests)
        succeeded = matched = ties = 0
        for request in record.requests:
            if not request.ok:
                self.result.problem(f"{phase}: request failed: {request.error}")
                continue
            verdict = self.oracle.judge(request.request, request.tokens)
            if verdict == "wrong":
                self.result.problem(
                    f"{phase}: {request.session_id} left the reference stream "
                    "where it has no tie"
                )
                continue
            succeeded += 1
            matched += verdict == "match"
            ties += verdict == "tie"
        counts = {
            "sent": sent, "succeeded": succeeded, "failed": sent - succeeded,
            "matched": matched, "ties": ties,
        }
        totals = self.result.phases.setdefault(
            phase.split("-")[0], dict.fromkeys(counts, 0)
        )
        for key, value in counts.items():
            totals[key] += value
        return counts

    # -- measured passes -----------------------------------------------

    def measure(self) -> None:
        result = self.result
        setup_seconds = time.perf_counter() - self.process_start
        untraced: list[tuple[PassRecord, dict[str, int], float]] = []
        traced: list[dict[str, float]] = []
        traced_rates: list[float] = []
        last_spans = None
        last_traced_record = None
        calibration = [hostprobe.calibrate()]
        for index in range(result.passes):
            label = f"p{index}"
            # With tracing on, odd passes carry the wrappers, so both kinds
            # see the same drift.
            with_spans = self.trace and (index % 2 == 1 or result.passes == 1)
            script = self.script.ordered(index)
            self._prepare_sessions(script, label)
            tracer = Tracer() if with_spans else None
            before = layers.counters(self.rig)
            if tracer is not None:
                layers.instrument(tracer, self.rig, self.template, self.checks)
            try:
                record = self.driver.run_pass(script, label)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = layers.counters(self.rig)
            stored = layers.bytes_per_token(self.rig)
            counts = self._judge(record, f"measured-{label}")
            self._check_restores(after["io_tasks"] - before["io_tasks"], label)
            self._close_sessions(script, label)
            if tracer is not None:
                traced.append(
                    layers.layer_metrics(self.rig, record, tracer.spans, before, after, stored)
                )
                traced_rates.append(len(record.completed) / record.wall)
                last_spans, last_traced_record = tracer.spans, record
            else:
                untraced.append((record, counts, stored))
        calibration.append(hostprobe.calibrate())
        result.notes["host_calib_ms"] = calibration

        measured = result.phases.get("measured", {})
        result.attempted = measured.get("sent", 0)
        result.failed = measured.get("failed", 0)
        if untraced:
            self._end_to_end(untraced, setup_seconds)
        if traced:
            assert last_spans is not None and last_traced_record is not None
            self._per_layer(traced, traced_rates, untraced, calibration)
            self._write_trace(last_spans, last_traced_record)

    def _check_restores(self, io_tasks: float, label: str) -> None:
        expected = self.workload.expects_restores
        if expected and io_tasks == 0:
            self.result.problem(f"{label}: no restore read was issued on {self.workload.name}")
        if not expected and io_tasks != 0:
            self.result.problem(
                f"{label}: {io_tasks:.0f} restore reads on {self.workload.name}, "
                "which must restore nothing"
            )

    @staticmethod
    def _pass_values(record: PassRecord, stored: float) -> dict[str, float]:
        done = record.completed
        ttfts = [r.ttft * 1e3 for r in done]
        gaps = [g * 1e3 for r in done for g in r.gaps]
        return {
            "ttft_p50_ms": stats.percentile(ttfts, 50),
            "ttft_p75_ms": stats.percentile(ttfts, TTFT_TAIL),
            "tbt_p50_ms": stats.percentile(gaps, 50),
            "tbt_p90_ms": stats.percentile(gaps, TBT_TAIL),
            "req_per_s": len(done) / record.wall,
            "cpu_ms_per_req": record.cpu_seconds * 1e3 / len(done),
            "storage_bytes_per_token": stored,
        }

    def _end_to_end(
        self, untraced: list[tuple[PassRecord, dict[str, int], float]], setup_seconds: float
    ) -> None:
        result = self.result
        records = [record for record, _, _ in untraced]
        if any(not record.completed for record in records):
            result.problem("a measured pass completed no request")
            return
        per_pass = [self._pass_values(record, stored) for record, _, stored in untraced]
        sent = sum(len(record.requests) for record in records)
        workload = self.workload
        within = sum(
            1
            for record in records
            for r in record.completed
            if r.ttft * 1e3 <= workload.slo_ttft_ms
            and (not r.gaps or statistics.fmean(r.gaps) * 1e3 <= workload.slo_tbt_ms)
        )
        # The two rates are taken over every request sent in a measured
        # pass; set-up time and peak memory exist once per process.
        whole_run = {
            "slo_attainment": within / sent,
            "token_match_rate": sum(counts["matched"] for _, counts, _ in untraced) / sent,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_seconds,
        }
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()} | TAILS
        for name, unit in units.items():
            values = [whole_run[name]] if name in whole_run else [p[name] for p in per_pass]
            target = result.tails if name in TAILS else result.end_to_end
            target[name] = {"unit": unit, **stats.summarize(values), "per_pass": values}

        ttfts = [[r.ttft for r in record.completed] for record in records]
        gaps = [[g for r in record.completed for g in r.gaps] for record in records]
        result.modality = {
            "ttft_share_above_2x_median": stats.tail_share([v for p in ttfts for v in p]),
            "tbt_share_above_2x_median": stats.tail_share([v for p in gaps for v in p]),
        }
        # What the SLO limits are judged on, request by request.
        result.notes["ttft_ms"] = [round(v * 1e3, 3) for p in ttfts for v in p]
        result.notes["mean_gap_ms"] = [
            round(statistics.fmean(r.gaps) * 1e3, 3)
            for record in records for r in record.completed if r.gaps
        ]
        result.notes["ttft_samples"] = sum(len(p) for p in ttfts)
        result.notes["tbt_samples"] = sum(len(p) for p in gaps)
        result.notes["pass_wall_s"] = [record.wall for record in records]
        if not self.smoke and not self.trace:
            # "Ten samples beyond": the pooled passes must carry the tails.
            stats.pooled_percentile_supported(ttfts, TTFT_TAIL)
            stats.pooled_percentile_supported(gaps, TBT_TAIL)
        first = records[0]
        result.counts = {
            "requests_per_pass": len(first.requests),
            "output_tokens_per_pass": sum(len(r.tokens) for r in first.completed),
        }
        for record in records[1:]:
            tokens = sum(len(r.tokens) for r in record.completed)
            if tokens != result.counts["output_tokens_per_pass"]:
                result.problem("passes of one script produced different token counts")

    def _per_layer(
        self,
        traced: list[dict[str, float]],
        traced_rates: list[float],
        untraced: list[tuple[PassRecord, dict[str, int], float]],
        calibration: list[float],
    ) -> None:
        result = self.result

        def report(name: str, values: list[float]) -> None:
            unit = layers.PER_LAYER[name][0]
            result.per_layer[name] = {"unit": unit, **stats.summarize(values), "per_pass": values}

        untraced_rates = [len(r.completed) / r.wall for r, _, _ in untraced]
        once = self._baselines() | {
            "core.restore_exact_rate": self.checks.rate,
            "traces.gen_ms_per_req": self.script_seconds * 1e3 / self.workload.requests_per_pass,
            "trace.overhead_share": (
                1.0 - statistics.median(traced_rates) / statistics.median(untraced_rates)
                if untraced_rates
                else 0.0
            ),
            "host.calib_ms_before": calibration[0],
            "host.calib_ms_after": calibration[-1],
            "host.nproc": float(os.cpu_count() or 0),
            "host.blas_threads": float(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
        }
        emitted = set(traced[0]) | set(once)
        if emitted != set(layers.PER_LAYER):
            raise RuntimeError(
                "per-layer metrics differ from layers.PER_LAYER (and BENCHMARK.json): "
                f"{sorted(emitted ^ set(layers.PER_LAYER))}"
            )
        for name in traced[0]:
            report(name, [metrics[name] for metrics in traced])
        for name, value in once.items():
            report(name, [value])
        if self.checks.rate != 1.0:
            result.problem(
                f"{self.checks.sampled - self.checks.exact} of {self.checks.sampled} "
                "sampled restores were not bit-exact"
            )

    def _baselines(self) -> dict[str, float]:
        """Isolated synchronous restores of one history, three ways.

        The history is the workload's template (``doc_ingest``, which has
        none, uses user 0's document), restored with nothing else running:
        from hidden states (HCache), from offloaded K/V, and by recomputing
        the prefill — the paper's headline ratios on the numeric engine.
        """
        template = self.template or make_template(self.model, self.script.users[0][0].prompt)
        n = template.n_tokens

        def timed(fn: Any, repeats: int) -> float:
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                samples.append((time.perf_counter() - start) * 1e3)
            return statistics.median(samples)

        clone_evicted_session(self.rig, template, "baseline-hcache")
        hcache_ms = timed(
            lambda: self.rig.hcache.restore("baseline-hcache", executor=self.rig.executor), 3
        )
        self.rig.engine.close_session("baseline-hcache")

        offload = build_kv_offload_engine(self.model)
        offload.register_context("baseline-kv")
        offload.save_states(
            "baseline-kv", template.hidden_states(), template.tokens, kv_cache=template.cache
        )
        offload.seal("baseline-kv")
        offload_ms = timed(
            lambda: offload.restore("baseline-kv", executor=self.rig.executor), 3
        )
        offload_bytes = offload.storage.array.total_used_bytes / n

        recompute_ms = timed(
            lambda: self.model.recompute_prefix(template.tokens, self.model.config.n_layers), 1
        )
        return {
            "baselines.hcache_restore_ms": hcache_ms,
            "baselines.kv_offload_restore_ms": offload_ms,
            "baselines.recompute_restore_ms": recompute_ms,
            "baselines.kv_offload_bytes_per_token": offload_bytes,
            "core.speedup_vs_kv_offload": offload_ms / hcache_ms,
            "core.speedup_vs_recompute": recompute_ms / hcache_ms,
        }

    def _write_trace(self, spans: list[Any], record: PassRecord) -> None:
        result = self.result
        timeline = layers.request_timeline(record)
        worst = max((row["error_share"] for row in timeline), default=0.0)
        result.notes["timeline_error_max_share"] = worst
        # The tiny smoke model's requests last milliseconds: the timing-quality
        # checks are about the real rig.
        if worst > 0.01 and not self.smoke:
            result.problem(
                f"a request's queue+restore+prefill+decode misses its latency by {worst:.1%}"
            )
        coverage = result.per_layer["trace.driver_coverage_share"]["value"]
        if coverage < 0.95 and not self.smoke:
            result.problem(f"driver-thread spans cover only {coverage:.1%} of the pass")
        self_times = layers.driver_self_times(spans)
        result.notes["driver_self_time_s"] = dict(
            sorted(self_times.items(), key=lambda item: -item[1])
        )
        stem = f"{self.workload.name}-seed{result.seed}"
        trace_path = RESULTS_DIR / f"trace-{stem}.json"
        write_chrome_trace(spans, trace_path)
        (RESULTS_DIR / f"timeline-{stem}.json").write_text(json.dumps(timeline, indent=1))
        result.notes["trace_file"] = str(trace_path)


def run_workload(
    name: str, seed: int, trace: bool, smoke: bool, process_start: float
) -> RunResult:
    run = _Run(WORKLOADS[name], seed, trace, smoke, process_start)
    try:
        run.set_up()
        run.measure()
    finally:
        run.rig.close()
    return run.result
