"""Chunk-based storage layout for hidden states (§4.2.1).

Hidden states are generated layer-before-token (autoregressively, one layer
at a time) but restored token-before-layer (all tokens of a layer at once).
The paper resolves the mismatch by splitting each layer's token run into
fixed-size chunks of 64 tokens; chunks of one layer are distributed across
the SSDs round-robin so a layer read aggregates the bandwidth of every
device, while growth by appending chunks avoids reserving worst-case space
(LLM output lengths are unpredictable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Tokens per chunk (§4.2.1: "fix-sized (64 tokens) chunks").
CHUNK_TOKENS = 64


@dataclass(frozen=True)
class ChunkKey:
    """Identity of one chunk: a context's layer-local chunk index.

    Every key is written once.  A sealed partial chunk and the full chunk
    (or longer partial) that later replaces it in the same slot differ in
    ``rows``, so the replacement lands under a new key while the copy it
    replaces is still on the device.

    Attributes:
        context_id: The conversation / document whose states are stored.
        layer: Transformer layer the chunk belongs to.
        index: Position of the chunk within the layer's token run.
        kind: ``"hidden"`` or ``"kv"`` — the scheduler may store some
            layers as KV instead of hidden states (§4.1).
        rows: 0 for a full chunk; the row count of a sealed partial.
    """

    context_id: str
    layer: int
    index: int
    kind: str = "hidden"
    rows: int = 0

    def __post_init__(self) -> None:
        if self.layer < 0 or self.index < 0 or self.rows < 0:
            raise ConfigError("chunk layer, index and rows must be non-negative")
        if self.kind not in ("hidden", "kv"):
            raise ConfigError(f"unknown chunk kind {self.kind!r}")


@dataclass(frozen=True)
class ChunkLayout:
    """Geometry of the chunks holding one layer's states for a context.

    Attributes:
        tokens_per_chunk: Chunk capacity in tokens.
        bytes_per_token: Per-token state size at this layer (hidden width or
            2x for KV), in bytes.
    """

    tokens_per_chunk: int = CHUNK_TOKENS
    bytes_per_token: int = 0

    def __post_init__(self) -> None:
        if self.tokens_per_chunk <= 0:
            raise ConfigError("tokens_per_chunk must be positive")
        if self.bytes_per_token < 0:
            raise ConfigError("bytes_per_token must be non-negative")

    @property
    def chunk_bytes(self) -> int:
        """Capacity of one chunk in bytes."""
        return self.tokens_per_chunk * self.bytes_per_token

    def chunks_for(self, n_tokens: int) -> int:
        """Number of chunks needed to hold ``n_tokens``."""
        if n_tokens < 0:
            raise ConfigError("token count must be non-negative")
        return math.ceil(n_tokens / self.tokens_per_chunk)

    def used_bytes(self, n_tokens: int) -> int:
        """Bytes of actual state stored for ``n_tokens``."""
        return n_tokens * self.bytes_per_token

    def allocated_bytes(self, n_tokens: int) -> int:
        """Bytes of chunk capacity allocated for ``n_tokens``."""
        return self.chunks_for(n_tokens) * self.chunk_bytes

    def internal_fragmentation(self, n_tokens: int) -> int:
        """Wasted bytes inside the final, partially filled chunk.

        Bounded by one chunk per (layer, context) — the reason the paper
        prefers chunking over reserving a maximum-length contiguous run.
        """
        return self.allocated_bytes(n_tokens) - self.used_bytes(n_tokens)
