"""The bubble-free restoration scheduler (§4.1).

Given an offline hardware profile, the scheduler picks how many layers to
restore from hidden states (``L_H``) and how many via the complementary
method (``L_O``), so that the compute and IO streams finish together:

- **Compute-bound platforms** (``C_H > IO_H``): IO would idle while
  projections drain, so the last ``L_O`` layers are fetched as raw KV
  cache, filling the bubble with transmission work:

      ``L_H = ceil(N * IO_KV / (IO_KV + C_H - IO_H))``

- **IO-bound platforms** (``C_H <= IO_H``): compute would idle while
  hidden states stream in, so the first ``L_O`` layers are recomputed from
  tokens while the rest prefetch:

      ``L_H = ceil(N * C_token / (C_token + IO_H - C_H))``

Both forms solve ``argmin max(stream finish times)`` subject to
``L_H + L_O = N``, the min-max program stated in §4.1.2, in continuous
layers.  :meth:`BubbleFreeScheduler.schedule` solves the program itself:
it prices every ``L_H`` with either complement on the two-stream walk
(which adds the chunk granularity and GEMM quantization the closed forms
ignore) and keeps the fastest, so the complement follows the prices,
not the regime.  The closed form stays as the paper's reference value.
:func:`hcache_timing` profiles, schedules and times one restoration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from repro.core.partition import LayerMethod, PartitionScheme
from repro.core.profiler import HardwareProfile, profile_platform
from repro.core.restoration import RestorationTiming, complement_makespans, two_stream_timing
from repro.errors import SchedulingError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform


@dataclass(frozen=True)
class ScheduleDecision:
    """The scheduler's output for one (model, platform, workload) point.

    Attributes:
        scheme: The chosen per-layer partition.
        predicted_makespan: Modelled restoration time of the scheme.
        predicted_bubble_fraction: Idle fraction of the bottleneck stream.
    """

    scheme: PartitionScheme
    predicted_makespan: float
    predicted_bubble_fraction: float

    def describe(self) -> str:
        return (
            f"{self.scheme.describe()} "
            f"(makespan {self.predicted_makespan * 1e3:.2f} ms, "
            f"bubble {self.predicted_bubble_fraction * 100:.1f}%)"
        )


class BubbleFreeScheduler:
    """Derives bubble-free partition schemes from hardware profiles."""

    def __init__(self, n_layers: int) -> None:
        if n_layers <= 0:
            raise SchedulingError("scheduler needs a positive layer count")
        self.n_layers = n_layers

    def closed_form_l_h(self, profile: HardwareProfile) -> int:
        """``L_H`` from the §4.1.2 formulas, clamped to ``[0, N]``."""
        n = self.n_layers
        if profile.compute_bound:
            denom = profile.io_kv + profile.compute_hidden - profile.io_hidden
            l_h = math.ceil(n * profile.io_kv / denom)
        else:
            denom = profile.compute_token + profile.io_hidden - profile.compute_hidden
            l_h = math.ceil(n * profile.compute_token / denom)
        return max(0, min(n, l_h))

    def schedule(self, profile: HardwareProfile) -> ScheduleDecision:
        """The fastest scheme of the §4.1.2 family under :func:`two_stream_timing`.

        The family is every ``L_H`` with its complement as a KV suffix or
        a recompute prefix, less the 1-layer prefix on a compute-bound
        profile: layer 0 stays stored there, as token-sourcing it belongs
        with the mixed prefix + KV-suffix schemes the family leaves out.
        Members are taken larger complement first, KV suffix first, and a
        later one wins only if it is faster by more than 1e-12 s.
        """
        best = (0, LayerMethod.KV, math.inf)
        for n_other, method, makespan in complement_makespans(self.n_layers, profile):
            if method is LayerMethod.RECOMPUTE and n_other == 1 and profile.compute_bound:
                continue
            if makespan < best[2] - 1e-12:
                best = (n_other, method, makespan)
        n_other, method, _ = best
        if method is LayerMethod.KV:
            scheme = PartitionScheme.with_kv_suffix(self.n_layers, n_other)
        else:
            scheme = PartitionScheme.with_recompute_prefix(self.n_layers, n_other)
        timing = two_stream_timing(scheme, profile)
        bubble = timing.compute_bubble if profile.compute_bound else timing.io_bubble
        return ScheduleDecision(
            scheme=scheme,
            predicted_makespan=timing.makespan,
            predicted_bubble_fraction=bubble / timing.makespan if timing.makespan > 0 else 0.0,
        )


@cache
def hcache_timing(
    config: ModelConfig,
    platform: Platform,
    n_tokens: int,
) -> tuple[RestorationTiming, ScheduleDecision]:
    """Profile, schedule, and time a full HCache restoration.

    Memoized per (model, platform, length): the figure benches ask for
    the same few thousand points over and over.
    """
    profile = profile_platform(config, platform, n_tokens)
    decision = BubbleFreeScheduler(config.n_layers).schedule(profile)
    return two_stream_timing(decision.scheme, profile), decision
