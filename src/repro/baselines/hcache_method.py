"""HCache as a :class:`RestorationMethod` (the paper's full system).

Wraps the offline profiler, the bubble-free scheduler, and the pipelined
restoration timing into the common interface the serving engine and the
benchmarks consume, so HCache lines up column-for-column against the
baselines.
"""

from __future__ import annotations

from repro.baselines.base import RestorationMethod
from repro.core.partition import PartitionScheme
from repro.core.profiler import profile_platform
from repro.core.restoration import RestorationTiming, scheme_timing
from repro.core.scheduler import BubbleFreeScheduler, ScheduleDecision
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform


class HCacheMethod(RestorationMethod):
    """Hidden-state restoration with the bubble-free scheduler."""

    name = "hcache"

    def __init__(
        self,
        config: ModelConfig,
        platform: Platform,
        bubble_free: bool = True,
    ) -> None:
        """Create the method.

        Args:
            config: Serving model.
            platform: Hardware platform.
            bubble_free: When False, forces the pure-HCache scheme —
                the "HCache-O" ablation variant of §6.3.1; otherwise the
                scheduler decides per history length.
        """
        super().__init__(config, platform)
        self._bubble_free = bubble_free
        self._scheduler = BubbleFreeScheduler(config.n_layers)
        self._decisions: dict[int, ScheduleDecision] = {}

    def scheme_for(self, n_tokens: int) -> PartitionScheme:
        """Partition used for a history of ``n_tokens``."""
        if not self._bubble_free:
            return PartitionScheme.pure_hcache(self.config.n_layers)
        return self.decision_for(n_tokens).scheme

    def decision_for(self, n_tokens: int) -> ScheduleDecision:
        """Scheduler decision (cached per history length)."""
        if n_tokens not in self._decisions:
            profile = profile_platform(self.config, self.platform, n_tokens)
            self._decisions[n_tokens] = self._scheduler.schedule(profile)
        return self._decisions[n_tokens]

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        scheme = self.scheme_for(n_tokens)
        return scheme_timing(self.config, self.platform, n_tokens, scheme)

    def storage_bytes_per_token(self, n_tokens: int = 1024) -> int:
        """Per-token storage of the scheme chosen at the reference length."""
        return self.scheme_for(n_tokens).storage_bytes_per_token(self.config)


class HCacheOnlyMethod(HCacheMethod):
    """HCache without the bubble-free scheduler (ablation §6.3.1)."""

    name = "hcache-o"

    def __init__(self, config: ModelConfig, platform: Platform) -> None:
        super().__init__(config, platform, bubble_free=False)
