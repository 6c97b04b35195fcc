"""The restoration-method interface shared by HCache and every baseline.

A restoration method answers three questions for a given model/platform:
how long restoring ``n`` history tokens takes (split into IO and compute so
the serving engine can overlap them), what it costs in host storage, and —
for batch-size-1 case studies — the resulting TTFT once the new prompt's
prefill is added (the paper's Fig. 4 / Fig. 10 setting).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.restoration import RestorationTiming
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.costs import prefill_time
from repro.simulator.hardware import Platform


class RestorationMethod(ABC):
    """Abstract state-restoration strategy."""

    #: Short name used in benchmark tables.
    name: str = "abstract"

    def __init__(self, config: ModelConfig, platform: Platform) -> None:
        self.config = config
        self.platform = platform

    @abstractmethod
    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        """Timing of restoring ``n_tokens`` of evicted history."""

    def storage_bytes_per_token(self) -> int:
        """Host-storage bytes consumed per context token."""
        return 0

    def ttft(self, n_history: int, n_new: int) -> float:
        """Batch-1 TTFT: restoration makespan plus the new prompt's prefill.

        The paper defines TTFT as the duration of the restoration and
        prefill phases (§6, Metrics).
        """
        if n_new < 0 or n_history < 0:
            raise ConfigError("token counts must be non-negative")
        restore = self.restoration_timing(n_history).makespan if n_history else 0.0
        overhead = self.platform.request_overhead
        return overhead + restore + prefill_time(self.config, self.platform, n_new)

    def restoration_speed(self, n_tokens: int) -> float:
        """Restored tokens per second (Fig. 11's recovery speed)."""
        return self.restoration_timing(n_tokens).restoration_speed

    def describe(self) -> str:
        return f"{self.name} ({self.config.name} on {self.platform.gpu.name})"
