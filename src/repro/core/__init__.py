"""HCache core: the paper's contribution.

Hidden-state save/restore orchestration (:class:`HCacheEngine`), the
bubble-free restoration scheduler (§4.1), partition schemes, restoration
timing of HCache and every method the paper compares it with (§6), and
the two-stage saving path (§4.2).
"""

from repro.core.gqa import (
    GQAAnalysis,
    analyze_gqa,
    gqa_aware_schedule,
    gqa_crossover_heads,
    with_kv_heads,
)
from repro.core.hcache import HCacheEngine
from repro.core.partition import LayerMethod, PartitionScheme, TokenPartition
from repro.core.profiler import HardwareProfile, build_storage_array, profile_platform
from repro.core.restoration import (
    DEFAULT_METHODS,
    METHODS,
    RestorationTiming,
    method_timing,
    naive_tokenwise_split,
    scheme_timing,
    tokenwise_timing,
    ttft,
    two_stream_timing,
)
from repro.core.saving import (
    DecodeSavingImpact,
    DirectIOSaver,
    NoSaver,
    TwoStageSaver,
    decode_tbt_with_saving,
)
from repro.core.scheduler import BubbleFreeScheduler, ScheduleDecision, hcache_timing

__all__ = [
    "DEFAULT_METHODS",
    "METHODS",
    "BubbleFreeScheduler",
    "DecodeSavingImpact",
    "DirectIOSaver",
    "GQAAnalysis",
    "analyze_gqa",
    "gqa_aware_schedule",
    "gqa_crossover_heads",
    "with_kv_heads",
    "HCacheEngine",
    "HardwareProfile",
    "LayerMethod",
    "NoSaver",
    "PartitionScheme",
    "RestorationTiming",
    "ScheduleDecision",
    "TokenPartition",
    "TwoStageSaver",
    "build_storage_array",
    "decode_tbt_with_saving",
    "hcache_timing",
    "method_timing",
    "naive_tokenwise_split",
    "profile_platform",
    "scheme_timing",
    "tokenwise_timing",
    "ttft",
    "two_stream_timing",
]
