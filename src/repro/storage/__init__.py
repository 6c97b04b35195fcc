"""Host storage substrate: chunked layout, devices, striped array, manager.

Implements the paper's chunk-based storage format (§4.2.1) functionally —
real payload round-trips — and as a timing model consumed by the
restoration pipeline.
"""

from repro.storage.array import LayerReadTiming, StorageArray
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey, ChunkLayout
from repro.storage.device import IOReceipt, LatencyEmulator, StorageDevice
from repro.storage.faults import FaultPolicy
from repro.storage.journal import ManifestJournal
from repro.storage.manager import ContextMeta, StorageManager
from repro.storage.replicated import ReplicatedDevice
from repro.storage.streaming import GranuleSpec, LayerChunk, StagingRing

__all__ = [
    "CHUNK_TOKENS",
    "ChunkKey",
    "ChunkLayout",
    "ContextMeta",
    "FaultPolicy",
    "GranuleSpec",
    "IOReceipt",
    "LatencyEmulator",
    "LayerChunk",
    "LayerReadTiming",
    "ManifestJournal",
    "ReplicatedDevice",
    "StagingRing",
    "StorageArray",
    "StorageDevice",
    "StorageManager",
]
