"""KV offload baseline (AttentionStore behaviour).

Saves the full KV cache to host storage and streams it back on reuse.
Pure IO: the transmission moves twice the bytes HCache does (K and V
versus one hidden vector per token-layer) and leaves the GPU idle.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import RestorationMethod
from repro.core.profiler import build_storage_array
from repro.core.restoration import RestorationTiming
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCache
from repro.simulator.hardware import Platform
from repro.storage.chunk import CHUNK_TOKENS
from repro.storage.manager import StorageManager


class KVOffloadMethod(RestorationMethod):
    """Fetch the offloaded KV cache layer by layer from the array."""

    name = "kv-offload"

    def __init__(self, config: ModelConfig, platform: Platform) -> None:
        super().__init__(config, platform)
        self._array = build_storage_array(platform)

    def restoration_timing(self, n_tokens: int) -> RestorationTiming:
        chunk_bytes = CHUNK_TOKENS * self.config.kv_bytes_per_token_layer
        layer_bytes = n_tokens * self.config.kv_bytes_per_token_layer
        per_layer = self._array.read_time(layer_bytes, chunk_bytes)
        io = per_layer * self.config.n_layers
        return RestorationTiming(
            n_tokens=n_tokens,
            makespan=io,
            io_busy=io,
            compute_busy=0.0,
            io_bubble=0.0,
            compute_bubble=0.0,
        )

    def storage_bytes_per_token(self) -> int:
        return self.config.kv_bytes_per_token

    # -- functional path ------------------------------------------------

    @staticmethod
    def save_numeric(manager: StorageManager, context_id: str, kv_cache: KVCache) -> None:
        """Offload every layer's packed KV rows to host storage."""
        config = kv_cache.config
        if not manager.has_context(context_id):
            manager.register_context(
                context_id,
                n_layers=config.n_layers,
                hidden_width=config.hidden_size,
                dtype=np.float32,
                kv_width=2 * config.kv_size,
            )
        for layer in range(config.n_layers):
            manager.append(context_id, layer, kv_cache.packed_layer(layer), kind="kv")
        manager.seal_context(context_id)

    @staticmethod
    def restore_numeric(
        manager: StorageManager, context_id: str, config: ModelConfig
    ) -> KVCache:
        """Fetch every layer's packed KV rows back into a cache."""
        cache = KVCache(config)
        cache.reserve(manager.tokens_stored(context_id, 0, kind="kv"))
        for layer in range(config.n_layers):
            cache.install_packed(layer, manager.load_layer(context_id, layer, kind="kv"))
        return cache
