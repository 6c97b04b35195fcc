"""Tests for the chunk layout (§4.2.1)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.storage.chunk import CHUNK_TOKENS, ChunkKey, ChunkLayout


class TestChunkKey:
    def test_valid_key(self):
        key = ChunkKey("ctx", 3, 7)
        assert key.kind == "hidden"

    def test_negative_layer_rejected(self):
        with pytest.raises(ConfigError):
            ChunkKey("ctx", -1, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ChunkKey("ctx", 0, 0, kind="tokens")

    def test_keys_hashable_and_distinct(self):
        a = ChunkKey("ctx", 0, 0, "hidden")
        b = ChunkKey("ctx", 0, 0, "kv")
        assert a != b
        assert len({a, b}) == 2


class TestChunkLayout:
    def test_default_chunk_is_64_tokens(self):
        assert CHUNK_TOKENS == 64

    def test_chunks_for_exact(self):
        layout = ChunkLayout(bytes_per_token=100)
        assert layout.chunks_for(128) == 2

    def test_chunks_for_partial(self):
        layout = ChunkLayout(bytes_per_token=100)
        assert layout.chunks_for(129) == 3

    def test_chunks_for_zero(self):
        layout = ChunkLayout(bytes_per_token=100)
        assert layout.chunks_for(0) == 0

    def test_chunks_for_negative_rejected(self):
        layout = ChunkLayout(bytes_per_token=100)
        with pytest.raises(ConfigError):
            layout.chunks_for(-1)

    def test_fragmentation_bounded_by_one_chunk(self):
        """§4.2.1's rationale: chunking bounds internal fragmentation."""
        layout = ChunkLayout(bytes_per_token=8192)
        for n in (1, 63, 64, 65, 100, 1000):
            assert 0 <= layout.internal_fragmentation(n) < layout.chunk_bytes

    def test_fragmentation_zero_at_boundary(self):
        layout = ChunkLayout(bytes_per_token=8192)
        assert layout.internal_fragmentation(128) == 0

    def test_allocated_at_least_used(self):
        layout = ChunkLayout(bytes_per_token=512)
        for n in (0, 1, 64, 200):
            assert layout.allocated_bytes(n) >= layout.used_bytes(n)

    def test_invalid_layout_rejected(self):
        with pytest.raises(ConfigError):
            ChunkLayout(tokens_per_chunk=0, bytes_per_token=1)
