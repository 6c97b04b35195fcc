"""Token recomputation baseline (DeepSpeed-MII / vLLM behaviour).

Restores evicted state by re-running the prefill over the original history
tokens.  Pure compute with quadratic attention cost — fast for short
histories, collapsing for long ones (Fig. 11g-i) — and zero storage,
since only the token ids are retained.
"""

from __future__ import annotations

from repro.baselines.base import RestorationMethod
from repro.core.restoration import RestorationTiming
from repro.simulator.costs import prefill_time


class RecomputationMethod(RestorationMethod):
    """Full prefill over history tokens."""

    name = "recompute"

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        compute = prefill_time(self.config, self.platform, n_tokens)
        return RestorationTiming(
            n_tokens=n_tokens,
            makespan=compute,
            io_busy=0.0,
            compute_busy=compute,
            io_bubble=0.0,
            compute_bubble=0.0,
        )

    def ttft(self, n_history: int, n_new: int) -> float:
        """Recomputation folds history and the new prompt into one prefill
        — cheaper than two passes thanks to batched attention."""
        return prefill_time(self.config, self.platform, n_history + n_new)
