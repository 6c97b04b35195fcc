"""Restoration pipeline construction (Fig. 5 and Fig. 8 of the paper).

Given per-layer IO and compute durations, these builders lay tasks onto the
two hardware streams exactly as §4.1 describes:

- **HCache layers**: the layer's hidden states are transmitted on the IO
  stream; its K/V projection runs on the compute stream once the data has
  arrived (Fig. 5).
- **KV-complement mode** (fast IO): hidden layers are transmitted first,
  back to back; the KV cache of the remaining layers is fetched in the IO
  time left over while projections drain (Fig. 8d).
- **Recompute-complement mode** (fast compute): the first ``L_O`` layers are
  recomputed from tokens while the hidden states of the later layers
  prefetch; projections start when the recomputation finishes (§4.1.2).
- **Token-wise partition** (Fig. 8c): every layer carries a hidden-state
  shard and a KV shard; the per-layer IO moves both, and the projection
  covers only the hidden shard.

All builders return a :class:`~repro.simulator.streams.ScheduleResult`, so
makespan and bubble accounting come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SchedulingError
from repro.simulator.streams import ScheduleResult, StreamSchedule

IO_STREAM = "io"
COMPUTE_STREAM = "compute"


class LayerMethod(str, Enum):
    """How one layer's state is restored."""

    HIDDEN = "hidden"
    KV = "kv"
    RECOMPUTE = "recompute"


@dataclass(frozen=True)
class LayerPlan:
    """One layer's restoration work items.

    Attributes:
        layer: Layer index (0-based).
        method: Restoration method for this layer.
        io_time: Transmission time on the IO stream (0 for recompute).
        compute_time: Time on the compute stream (projection for HIDDEN,
            full-layer forward for RECOMPUTE, 0 for KV).
    """

    layer: int
    method: LayerMethod
    io_time: float
    compute_time: float

    def __post_init__(self) -> None:
        if self.io_time < 0 or self.compute_time < 0:
            raise SchedulingError(f"layer {self.layer}: negative task duration")
        if self.method is LayerMethod.RECOMPUTE and self.io_time > 0:
            raise SchedulingError("recompute layers move no state over IO")
        if self.method is LayerMethod.KV and self.compute_time > 0:
            raise SchedulingError("KV-offloaded layers need no compute")


def _check_plans(plans: list[LayerPlan]) -> None:
    if not plans:
        raise SchedulingError("restoration plan is empty")
    layers = [p.layer for p in plans]
    if sorted(layers) != list(range(len(plans))):
        raise SchedulingError(f"layer plans must cover 0..{len(plans) - 1}, got {layers}")
    recompute = [p.layer for p in plans if p.method is LayerMethod.RECOMPUTE]
    if recompute and recompute != list(range(len(recompute))):
        raise SchedulingError(
            "token-recomputed layers must be a prefix of the model "
            f"(they need the embedding forward), got layers {recompute}"
        )


def build_layerwise_schedule(plans: list[LayerPlan]) -> ScheduleResult:
    """Lay out a layer-wise partitioned restoration (§4.1.1, Fig. 8b/d).

    Ordering rules derived from the paper:

    1. Token-recomputed layers (a prefix) run first on the compute stream.
    2. Hidden-state transmissions run back to back on the IO stream starting
       at time zero (prefetch during recomputation is explicit in §4.1.2).
    3. Each hidden layer's projection waits for its transmission and, for
       the first one, the end of token recomputation (projections continue
       the forward pass, so they follow recompute on the same stream).
    4. KV-offloaded layers transmit after all hidden states (they fill the
       IO bubble while projections drain).
    """
    _check_plans(plans)
    ordered = sorted(plans, key=lambda p: p.layer)
    schedule = StreamSchedule()

    recompute_tasks = [
        schedule.submit(f"recompute:L{p.layer}", COMPUTE_STREAM, p.compute_time)
        for p in ordered
        if p.method is LayerMethod.RECOMPUTE
    ]

    hidden = [p for p in ordered if p.method is LayerMethod.HIDDEN]
    io_tasks = {
        p.layer: schedule.submit(f"io:L{p.layer}", IO_STREAM, p.io_time) for p in hidden
    }
    barrier = (recompute_tasks[-1],) if recompute_tasks else ()
    for p in hidden:
        deps = (io_tasks[p.layer],) + barrier
        schedule.submit(f"proj:L{p.layer}", COMPUTE_STREAM, p.compute_time, deps=deps)

    for p in ordered:
        if p.method is LayerMethod.KV:
            schedule.submit(f"kv:L{p.layer}", IO_STREAM, p.io_time)

    result = schedule.run()
    result.validate()
    return result


@dataclass(frozen=True)
class TokenwiseLayerPlan:
    """One layer of a token-wise partitioned restoration (Fig. 8a/c).

    ``io_time`` covers the combined transfer of the hidden-state shard and
    the complementary KV shard; ``compute_time`` is the (tile-quantized)
    projection over the hidden shard only.  Per-layer synchronization is
    required because the next layer's buffers reuse the same staging space.
    """

    layer: int
    io_time: float
    compute_time: float


def build_tokenwise_schedule(plans: list[TokenwiseLayerPlan]) -> ScheduleResult:
    """Lay out a token-wise partitioned restoration.

    Layer ``i``'s projection overlaps layer ``i+1``'s transmission, but each
    projection waits for its own layer's combined transfer — the structure
    shown in Fig. 8c.
    """
    if not plans:
        raise SchedulingError("restoration plan is empty")
    ordered = sorted(plans, key=lambda p: p.layer)
    schedule = StreamSchedule()
    for p in ordered:
        io = schedule.submit(f"io:L{p.layer}", IO_STREAM, p.io_time)
        schedule.submit(f"proj:L{p.layer}", COMPUTE_STREAM, p.compute_time, deps=(io,))
    result = schedule.run()
    result.validate()
    return result


def restoration_makespan(plans: list[LayerPlan]) -> float:
    """Convenience wrapper returning only the layer-wise makespan."""
    return build_layerwise_schedule(plans).makespan


@dataclass(frozen=True)
class ShardedStageTimeline:
    """One pipeline stage's granule timeline in a sharded restoration.

    Built from one stage's measured
    :class:`~repro.runtime.executor.GranuleTrace` entries (or synthetic
    durations in tests): per consumed granule, the modelled
    single-link IO seconds, the measured consume seconds, and the gather
    seconds the tensor dimension adds (zero for KV installs or a single
    tensor rank).

    Attributes:
        stage: Stage index along the pipeline dimension.
        io_seconds: Per-granule device IO at single-link bandwidth.
        compute_seconds: Per-granule projection/install time.
        gather_seconds: Per-granule all-gather reassembly time.
    """

    stage: int
    io_seconds: tuple[float, ...]
    compute_seconds: tuple[float, ...]
    gather_seconds: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = {
            len(self.io_seconds),
            len(self.compute_seconds),
            len(self.gather_seconds),
        }
        if len(lengths) != 1:
            raise SchedulingError(
                f"stage {self.stage}: io/compute/gather series must align, got "
                f"{len(self.io_seconds)}/{len(self.compute_seconds)}/"
                f"{len(self.gather_seconds)} entries"
            )
        for series in (self.io_seconds, self.compute_seconds, self.gather_seconds):
            if any(t < 0 for t in series):
                raise SchedulingError(f"stage {self.stage}: negative task duration")


def sharded_restoration_makespan(
    stages: "list[ShardedStageTimeline] | tuple[ShardedStageTimeline, ...]",
    tensor_shards: int,
) -> float:
    """Makespan of a sharded drain: parallel IO streams, one merge stream.

    This models what :func:`~repro.runtime.executor.drain_granules`
    actually executes — which is *not* a grid of fully independent GPUs
    (that idealization is :func:`repro.simulator.multi_gpu.sharded_restoration`):

    - **IO**: each pipeline stage owns an independent IO stream, and the
      tensor dimension is folded in on it — each granule's single-link IO
      is divided by ``tensor_shards`` (the ranks read disjoint shards at
      aggregated bandwidth) and followed by its gather before the merge
      can start.  Stage streams advance concurrently.
    - **Compute**: every stage's granules merge through *one* compute
      stream (the §4.1 recurrence), because the executor's bit-exactness
      contract runs all projection/install work on the single calling
      thread.  Granules enter the merge stream as their stage IO streams
      deliver them (readiness order — the executor's rotation services
      whichever stage has a granule ready).

    Sharding therefore accelerates the IO side of the §4.1 pipeline; the
    makespan floors at the total single-stream merge compute, which is
    exactly how the measured harness behaves.
    """
    if tensor_shards < 1:
        raise SchedulingError("tensor_shards must be >= 1")
    if not stages:
        raise SchedulingError("sharded restoration plan is empty")
    ready_times = []
    for timeline in stages:
        io_done = 0.0
        for io, compute, gather in zip(
            timeline.io_seconds, timeline.compute_seconds, timeline.gather_seconds
        ):
            io_done += io / tensor_shards + gather
            ready_times.append((io_done, compute))
    compute_done = 0.0
    for ready, compute in sorted(ready_times, key=lambda event: event[0]):
        compute_done = max(compute_done, ready) + compute
    return compute_done
