"""Host storage substrate: chunked layout, devices, striped array, manager.

Implements the paper's chunk-based storage format (§4.2.1) functionally —
real payload round-trips — and as a timing model consumed by the
restoration pipeline.
"""

from repro.storage.allocator import AllocatorStats, ChunkAllocator, ChunkRun
from repro.storage.array import LayerReadTiming, StorageArray
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey, ChunkLayout
from repro.storage.daemon import FlushDaemon, SnapshotOutcome
from repro.storage.device import IOReceipt, LatencyEmulator, StorageDevice
from repro.storage.faults import FaultPolicy
from repro.storage.journal import (
    ContextManifest,
    ManifestJournal,
    ManifestState,
    RunManifest,
)
from repro.storage.manager import ContextMeta, StorageManager
from repro.storage.replicated import ReplicatedDevice
from repro.storage.streaming import (
    GranuleSpec,
    LayerChunk,
    StagingRing,
    pipelined_makespan,
)
from repro.storage.tiered import TieredBackend, TieredReadTiming, TieredStreamTiming

__all__ = [
    "CHUNK_TOKENS",
    "AllocatorStats",
    "ChunkAllocator",
    "ChunkKey",
    "ChunkLayout",
    "ChunkRun",
    "ContextManifest",
    "ContextMeta",
    "FaultPolicy",
    "FlushDaemon",
    "GranuleSpec",
    "IOReceipt",
    "LatencyEmulator",
    "LayerChunk",
    "LayerReadTiming",
    "ManifestJournal",
    "ManifestState",
    "ReplicatedDevice",
    "RunManifest",
    "SnapshotOutcome",
    "StagingRing",
    "StorageArray",
    "StorageDevice",
    "StorageManager",
    "TieredBackend",
    "TieredReadTiming",
    "TieredStreamTiming",
    "pipelined_makespan",
]
