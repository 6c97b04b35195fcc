"""Per-layer metrics of one traced pass, named ``<module>.<metric>``.

Everything is measured from outside: spans around public callables (see
:func:`instrument`) plus the counters those objects already publish.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from . import stats
from .driver import PassRecord
from .rig import Rig, Template
from .tracing import Span, Tracer, covered, merged, overlap, self_times

DRIVER_THREAD = "MainThread"
#: The tail percentiles of TTFT and of token gaps.
TTFT_TAIL, TBT_TAIL = 75.0, 90.0
#: Every n-th traced restore is compared bit for bit with the template.
EXACTNESS_SAMPLE_EVERY = 3

#: name -> (unit, better): every per-layer metric a traced run reports.
#: BENCHMARK.json lists exactly these; a self-test keeps the two in step.
PER_LAYER: dict[str, tuple[str, str]] = {
    "engine.queue_wait_p50_ms": ("ms", "lower"),
    "engine.iterations": ("count", "lower"),
    "engine.idle_polls": ("count", "lower"),
    "engine.batch_size_mean": ("count", "higher"),
    "engine.prefill_tokens_per_iter_mean": ("count", "higher"),
    "engine.step_self_ms_per_iter": ("ms", "lower"),
    "engine.execute_iteration_self_ms_per_iter": ("ms", "lower"),
    "engine.restore_overlap_share": ("share", "higher"),
    "engine.rejected": ("count", "lower"),
    "engine.evictions": ("count", "lower"),
    "engine.ttft_p75_ms": ("ms", "lower"),
    "engine.tbt_p90_ms": ("ms", "lower"),
    "models.forward_fused_s": ("s", "lower"),
    "models.forward_fused_calls": ("count", "lower"),
    "models.prefill_tok_per_s": ("tok/s", "higher"),
    "models.decode_batch_s": ("s", "lower"),
    "models.decode_batch_calls": ("count", "lower"),
    "models.decode_ms_per_call": ("ms", "lower"),
    "models.project_kv_s": ("s", "lower"),
    "models.project_kv_calls": ("count", "lower"),
    "models.project_kv_rows": ("count", "lower"),
    "models.project_kv_flops": ("flops", "lower"),
    "models.project_kv_bytes": ("bytes", "lower"),
    "core.save_states_s": ("s", "lower"),
    "core.save_states_calls": ("count", "lower"),
    "core.saved_tokens": ("count", "lower"),
    "core.save_us_per_token": ("us/tok", "lower"),
    "core.restores": ("count", "lower"),
    "core.restored_tokens": ("count", "lower"),
    "core.restore_p50_ms": ("ms", "lower"),
    "core.restore_p75_ms": ("ms", "lower"),
    "core.restore_self_s": ("s", "lower"),
    "core.restore_tok_per_s": ("tok/s", "higher"),
    "core.seal_s": ("s", "lower"),
    "core.restore_exact_rate": ("share", "higher"),
    "core.speedup_vs_kv_offload": ("x", "higher"),
    "core.speedup_vs_recompute": ("x", "higher"),
    "runtime.async_submit_ms_per_call": ("ms", "lower"),
    "runtime.io_tasks": ("count", "lower"),
    "runtime.io_dispatch_s": ("s", "lower"),
    "runtime.settle_lag_p50_ms": ("ms", "lower"),
    "runtime.concurrent_restores_mean": ("count", "higher"),
    "runtime.restore_bubble_share": ("share", "lower"),
    "storage.append_s": ("s", "lower"),
    "storage.append_calls": ("count", "lower"),
    "storage.bytes_written": ("bytes", "lower"),
    "storage.seal_s": ("s", "lower"),
    "storage.read_granule_s": ("s", "lower"),
    "storage.read_granule_calls": ("count", "lower"),
    "storage.bytes_read": ("bytes", "lower"),
    "storage.device_busy_s": ("s", "lower"),
    "storage.emulated_sleep_s": ("s", "lower"),
    "storage.degraded_reads": ("count", "lower"),
    "storage.bytes_per_token": ("B/tok", "lower"),
    "baselines.hcache_restore_ms": ("ms", "lower"),
    "baselines.kv_offload_restore_ms": ("ms", "lower"),
    "baselines.recompute_restore_ms": ("ms", "lower"),
    "baselines.kv_offload_bytes_per_token": ("B/tok", "lower"),
    "traces.gen_ms_per_req": ("ms", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.driver_coverage_share": ("share", "higher"),
    "trace.spans": ("count", "lower"),
    "host.calib_ms_before": ("ms", "lower"),
    "host.calib_ms_after": ("ms", "lower"),
    "host.nproc": ("count", "higher"),
    "host.blas_threads": ("count", "higher"),
}


@dataclass
class RestoreChecks:
    """Restores compared bit-exactly against the template's KV cache."""

    sampled: int = 0
    exact: int = 0

    def check(self, cache: Any, template: Template) -> None:
        self.sampled += 1
        if cache.equals(template.cache):
            self.exact += 1

    @property
    def rate(self) -> float:
        return self.exact / self.sampled if self.sampled else 1.0


def instrument(
    tracer: Tracer, rig: Rig, template: Template | None, checks: RestoreChecks
) -> None:
    """Wrap the public callables whose spans the per-layer metrics need."""

    def first_arg(session_id: str, *args: Any, **kwargs: Any) -> list[str]:
        return [session_id]

    seen_restores = [0]

    def sample_restore(cache: Any, span: Span) -> None:
        seen_restores[0] += 1
        if template is not None and seen_restores[0] % EXACTNESS_SAMPLE_EVERY == 1:
            checks.check(cache, template)

    model, hcache, storage = rig.model, rig.hcache, rig.storage
    tracer.wrap(rig.frontend, "step", "engine.step")
    tracer.wrap(rig.engine, "execute_iteration", "engine.execute_iteration")
    tracer.wrap(rig.engine, "evict", "engine.evict", sessions=first_arg)
    tracer.wrap(
        model, "forward_fused", "models.forward_fused",
        work=lambda segments, *a, **k: sum(int(s.size) for s in segments),
    )
    tracer.wrap(
        model, "decode_batch", "models.decode_batch",
        work=lambda tokens, *a, **k: int(tokens.size),
    )
    tracer.wrap(
        model, "project_kv_chunk", "models.project_kv_chunk",
        work=lambda layer, hidden_chunk, *a, **k: hidden_chunk.shape[0],
    )
    tracer.wrap(
        hcache, "save_states", "core.save_states", sessions=first_arg,
        work=lambda cid, hidden_states, tokens, *a, **k: len(tokens),
    )
    tracer.wrap(
        hcache, "restore", "core.restore", sessions=first_arg,
        work=lambda cid, *a, **k: hcache.saved_tokens(cid),
        caused_by="runtime.restore_contexts_async", on_result=sample_restore,
    )
    tracer.wrap(hcache, "seal", "core.seal", sessions=first_arg)
    tracer.wrap(
        rig.executor, "restore_contexts_async", "runtime.restore_contexts_async",
        sessions=lambda engine, context_ids, **k: list(context_ids),
        work=lambda engine, context_ids, **k: len(context_ids),
    )
    tracer.wrap(
        storage, "append", "storage.append", sessions=first_arg,
        work=lambda cid, layer, states, *a, **k: states.nbytes,
    )
    tracer.wrap(
        storage, "read_granule_into", "storage.read_granule_into", sessions=first_arg,
        work=lambda cid, spec, out: out.nbytes, caused_by="core.restore",
    )
    tracer.wrap(storage, "seal_context", "storage.seal_context", sessions=first_arg)


def counters(rig: Rig) -> dict[str, float]:
    """Counters the rig's objects publish; per-pass values are differences."""
    return {
        "io_tasks": rig.executor.pool.tasks_submitted,
        "io_dispatch_s": rig.executor.pool.dispatch_s,
        "device_busy_s": sum(d.busy_seconds for d in rig.array.devices),
        "emulated_sleep_s": rig.emulator.slept_s,
        "degraded_reads": rig.array.degraded_reads,
        "rejected": rig.frontend.rejected_requests,
    }


def bytes_per_token(rig: Rig) -> float:
    """Device bytes held per saved token, over the sessions now open."""
    saved = sum(rig.hcache.saved_tokens(cid) for cid in rig.hcache.context_ids())
    return rig.array.total_used_bytes / saved if saved else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def request_timeline(record: PassRecord) -> list[dict[str, Any]]:
    """Flat per-request timeline from the front end's own ``ServingResponse``."""
    rows = []
    for request in record.completed:
        response = request.response
        queue = response.admitted_at - response.arrival_time
        restore = response.restore_seconds
        prefill = response.first_token_at - response.admitted_at - restore
        decode = response.finished_at - response.first_token_at
        total = queue + restore + prefill + decode
        rows.append(
            {
                "request_id": response.request_id,
                "session_id": response.session_id,
                "user": request.request.user,
                "round": request.request.round,
                "queue_ms": queue * 1e3,
                "restore_ms": restore * 1e3,
                "prefill_ms": prefill * 1e3,
                "decode_ms": decode * 1e3,
                "latency_ms": request.latency * 1e3,
                "error_share": abs(total - request.latency) / request.latency,
            }
        )
    return rows


def driver_self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name on the driver thread."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if span.thread == DRIVER_THREAD:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def layer_metrics(
    rig: Rig,
    record: PassRecord,
    spans: list[Span],
    before: dict[str, float],
    after: dict[str, float],
    stored_bytes_per_token: float,
) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced pass.

    Units and directions are in :data:`PER_LAYER`.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def work(name: str) -> float:
        return sum(s.work for s in by_name.get(name, []))

    delta = {key: after[key] - before[key] for key in before}
    config = rig.model.config
    out: dict[str, float] = {}

    # engine ---------------------------------------------------------
    working = [s for s in record.steps if s.model_calls > 0]
    iterations = len(record.steps)
    waits = [
        (r.response.admitted_at - r.response.arrival_time) * 1e3 for r in record.completed
    ]
    model_calls = merged(
        (s.start, s.end)
        for name in ("models.forward_fused", "models.decode_batch")
        for s in by_name.get(name, [])
    )
    restores = by_name.get("core.restore", [])
    restore_wall = sum(s.duration for s in restores)
    out["engine.queue_wait_p50_ms"] = _median(waits)
    out["engine.iterations"] = iterations
    out["engine.idle_polls"] = iterations - len(working)
    out["engine.batch_size_mean"] = _ratio(sum(s.batch_size for s in working), len(working))
    out["engine.prefill_tokens_per_iter_mean"] = _ratio(
        sum(s.prefill_tokens for s in working), len(working)
    )
    out["engine.step_self_ms_per_iter"] = _ratio(self_total("engine.step") * 1e3, iterations)
    out["engine.execute_iteration_self_ms_per_iter"] = _ratio(
        self_total("engine.execute_iteration") * 1e3, calls("engine.execute_iteration")
    )
    out["engine.restore_overlap_share"] = _ratio(
        sum(overlap((s.start, s.end), model_calls) for s in restores), restore_wall
    )
    out["engine.rejected"] = delta["rejected"]
    out["engine.evictions"] = calls("engine.evict")
    # The demoted end-to-end tails, from the driver's own token stamps.
    out["engine.ttft_p75_ms"] = stats.percentile(
        [r.ttft * 1e3 for r in record.completed], TTFT_TAIL
    )
    out["engine.tbt_p90_ms"] = stats.percentile(
        [g * 1e3 for r in record.completed for g in r.gaps], TBT_TAIL
    )

    # models ---------------------------------------------------------
    prefill_tokens = sum(s.prefill_tokens for s in record.steps)
    rows = work("models.project_kv_chunk")
    kv_calls = calls("models.project_kv_chunk")
    out["models.forward_fused_s"] = total("models.forward_fused")
    out["models.forward_fused_calls"] = calls("models.forward_fused")
    out["models.prefill_tok_per_s"] = _ratio(prefill_tokens, total("models.forward_fused"))
    out["models.decode_batch_s"] = total("models.decode_batch")
    out["models.decode_batch_calls"] = calls("models.decode_batch")
    out["models.decode_ms_per_call"] = _ratio(
        total("models.decode_batch") * 1e3, calls("models.decode_batch")
    )
    out["models.project_kv_s"] = total("models.project_kv_chunk")
    out["models.project_kv_calls"] = kv_calls
    out["models.project_kv_rows"] = rows
    # Computed from tensor sizes, not measured: two (rows x hidden) @
    # (hidden x kv) GEMMs; hidden rows in, K and V rows out, weights per call.
    out["models.project_kv_flops"] = 4.0 * rows * config.hidden_size * config.kv_size
    out["models.project_kv_bytes"] = 4.0 * (
        rows * config.hidden_size
        + 2 * rows * config.kv_size
        + kv_calls * 2 * config.hidden_size * config.kv_size
    )

    # core -----------------------------------------------------------
    saved_tokens = work("core.save_states")
    restored_tokens = sum(s.work for s in restores)
    restore_ms = [s.duration * 1e3 for s in restores]
    out["core.save_states_s"] = total("core.save_states")
    out["core.save_states_calls"] = calls("core.save_states")
    out["core.saved_tokens"] = saved_tokens
    out["core.save_us_per_token"] = _ratio(total("core.save_states") * 1e6, saved_tokens)
    out["core.restores"] = len(restores)
    out["core.restored_tokens"] = restored_tokens
    out["core.restore_p50_ms"] = stats.percentile(restore_ms, 50) if restore_ms else 0.0
    out["core.restore_p75_ms"] = stats.percentile(restore_ms, 75) if restore_ms else 0.0
    out["core.restore_self_s"] = self_total("core.restore")
    out["core.restore_tok_per_s"] = _ratio(restored_tokens, restore_wall)
    out["core.seal_s"] = total("core.seal")

    # runtime --------------------------------------------------------
    reads_by_session: dict[str | None, float] = {}
    for s in by_name.get("storage.read_granule_into", []):
        reads_by_session[s.session] = reads_by_session.get(s.session, 0.0) + s.duration
    project_by_restore: dict[int | None, float] = {}
    for s in by_name.get("models.project_kv_chunk", []):
        project_by_restore[s.parent] = project_by_restore.get(s.parent, 0.0) + s.duration
    bubbles = sum(
        s.duration - max(reads_by_session.get(s.session, 0.0),
                         project_by_restore.get(s.id, 0.0))
        for s in restores
    )
    restore_end = {s.session: s.end for s in restores}
    settle_lags = [
        (r.response.admitted_at + r.response.restore_seconds - restore_end[r.session_id]) * 1e3
        for r in record.completed
        if r.session_id in restore_end
    ]
    out["runtime.async_submit_ms_per_call"] = _ratio(
        total("runtime.restore_contexts_async") * 1e3, calls("runtime.restore_contexts_async")
    )
    out["runtime.io_tasks"] = delta["io_tasks"]
    out["runtime.io_dispatch_s"] = delta["io_dispatch_s"]
    out["runtime.settle_lag_p50_ms"] = _median(settle_lags)
    out["runtime.concurrent_restores_mean"] = _ratio(
        restore_wall, covered((s.start, s.end) for s in restores)
    )
    out["runtime.restore_bubble_share"] = _ratio(bubbles, restore_wall)

    # storage --------------------------------------------------------
    out["storage.append_s"] = total("storage.append")
    out["storage.append_calls"] = calls("storage.append")
    out["storage.bytes_written"] = work("storage.append")
    out["storage.seal_s"] = total("storage.seal_context")
    out["storage.read_granule_s"] = total("storage.read_granule_into")
    out["storage.read_granule_calls"] = calls("storage.read_granule_into")
    out["storage.bytes_read"] = work("storage.read_granule_into")
    out["storage.device_busy_s"] = delta["device_busy_s"]
    out["storage.emulated_sleep_s"] = delta["emulated_sleep_s"]
    out["storage.degraded_reads"] = delta["degraded_reads"]
    out["storage.bytes_per_token"] = stored_bytes_per_token

    # trace ----------------------------------------------------------
    roots = [
        (s.start, s.end) for s in spans if s.thread == DRIVER_THREAD and s.parent is None
    ]
    out["trace.driver_coverage_share"] = _ratio(covered(roots), record.wall)
    out["trace.spans"] = len(spans)
    return out
