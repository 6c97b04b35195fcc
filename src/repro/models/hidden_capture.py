"""Amortized-growth buffer for captured residual-stream states.

During generation the transformer captures the hidden states entering
every layer — the tensors HCache persists.  Accumulating them with
``np.concatenate`` per decode step re-copies the whole history every
token (O(n^2) over a generation); this buffer instead keeps one
``(n_layers, capacity, hidden)`` array that grows by amortized doubling,
so each step is an O(1) row write and the full per-layer history is
available as zero-copy views at any time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.growth import grown_capacity


class HiddenCapture:
    """Growable per-layer store of residual-stream inputs."""

    def __init__(self, n_layers: int, hidden_size: int, dtype=np.float32) -> None:
        if n_layers <= 0 or hidden_size <= 0:
            raise ConfigError("capture needs positive layer count and hidden size")
        self.n_layers = n_layers
        self.hidden_size = hidden_size
        self._buf = np.empty((n_layers, 0, hidden_size), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def n_tokens(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return self._buf.shape[1]

    def reserve(self, n_tokens: int) -> None:
        """Preallocate capacity for ``n_tokens`` total."""
        if n_tokens < 0:
            raise ConfigError("cannot reserve a negative capacity")
        self._ensure_capacity(n_tokens)

    def _ensure_capacity(self, min_capacity: int) -> None:
        cap = self.capacity
        if cap >= min_capacity:
            return
        new_cap = grown_capacity(cap, min_capacity)
        new_buf = np.empty(
            (self.n_layers, new_cap, self.hidden_size), dtype=self._buf.dtype
        )
        if self._n:
            new_buf[:, : self._n] = self._buf[:, : self._n]
        self._buf = new_buf

    def extend(self, n_new: int) -> int:
        """Grow the valid region by ``n_new`` tokens; returns the start row.

        The caller then fills ``write(layer, start, rows)`` for every
        layer.  A forward pass reserves its whole block up front so the
        per-layer writes are pure slice assignments.
        """
        if n_new < 0:
            raise ConfigError("cannot extend by a negative token count")
        start = self._n
        self._ensure_capacity(start + n_new)
        self._n = start + n_new
        return start

    def write(self, layer: int, start: int, rows: np.ndarray) -> None:
        """Write one layer's hidden rows for a block starting at ``start``."""
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer {layer} out of range")
        stop = start + rows.shape[0]
        if not 0 <= start <= stop <= self._n:
            raise ConfigError(
                f"rows [{start}, {stop}) outside the valid region of {self._n} tokens"
            )
        self._buf[layer, start:stop] = rows

    def layer_view(self, layer: int) -> np.ndarray:
        """Zero-copy ``(n_tokens, hidden)`` view of one layer's history."""
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer {layer} out of range")
        return self._buf[layer, : self._n]

    def block_views(self, start: int, stop: int) -> list[np.ndarray]:
        """Per-layer zero-copy views of rows ``[start, stop)``."""
        if not 0 <= start <= stop <= self._n:
            raise ConfigError(
                f"rows [{start}, {stop}) outside the valid region of {self._n} tokens"
            )
        return [self._buf[layer, start:stop] for layer in range(self.n_layers)]
