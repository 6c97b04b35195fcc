"""Naive O(n^2) reference implementations of the save/restore hot path.

These are the pre-optimization semantics of attention, the KV cache and
the restoration loop, kept verbatim so that

- tests can assert the tiled attention kernel, the amortized-growth cache
  and the fused granule projection are **bit-exact** against the original
  einsum-, concatenate- and per-layer-based behaviour
  (:func:`naive_restore_cache_from_hidden` is the restore oracle: the
  projection of saved hidden states must reproduce the serial forward's
  K/V), and
- ``benchmarks/bench_hotpath.py`` can measure the speedup of the O(n)
  state path against the quadratic baseline forever, not just once.

Nothing in the serving stack should import this module for real work.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, StateError
from repro.models.config import ModelConfig
from repro.models.tensor_ops import causal_mask, softmax


def naive_scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    query_offset: int,
) -> np.ndarray:
    """The original einsum attention, the oracle of the tiled BLAS kernel.

    Builds the causal mask and runs the full einsum contraction even for
    single-token decode steps.
    """
    n_q, n_heads, head_dim = queries.shape
    n_k = keys.shape[0]
    if keys.shape != values.shape:
        raise ConfigError("keys and values must share a shape")
    if keys.shape[1] != n_heads:
        raise ConfigError(f"key heads {keys.shape[1]} mismatch query heads {n_heads}")
    scale = 1.0 / np.sqrt(head_dim)
    scores = np.einsum("qhd,khd->hqk", queries, keys) * scale
    mask = causal_mask(n_q, n_k, query_offset)[None, :, :]
    scores = np.where(mask, scores, np.float32(-1e30))
    probs = softmax(scores, axis=-1)
    out = np.einsum("hqk,khd->qhd", probs, values)
    return out.astype(np.float32)


class NaiveKVCache:
    """The original concatenate-on-append KV cache.

    Grows every layer's K/V by ``np.concatenate`` (an O(history) copy per
    append) and recomputes the cross-layer length agreement check with a
    set comprehension on every ``__len__``.  API-compatible with
    :class:`repro.models.kv_cache.KVCache` for everything the transformer
    forward pass and the tests exercise.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        shape = (0, config.n_kv_heads, config.head_dim)
        self._keys = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self._values = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]

    def __len__(self) -> int:
        lengths = {k.shape[0] for k in self._keys}
        if len(lengths) != 1:
            raise StateError(f"layers disagree on cached length: {sorted(lengths)}")
        return lengths.pop()

    def layer_len(self, layer: int) -> int:
        return self._keys[layer].shape[0]

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.config.n_layers:
            raise ConfigError(f"layer {layer} out of range")

    def _check_shape(self, tensor: np.ndarray, name: str) -> np.ndarray:
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim != 3 or tensor.shape[1:] != (self.config.n_kv_heads, self.config.head_dim):
            raise ConfigError(
                f"{name} must be (n, {self.config.n_kv_heads}, {self.config.head_dim}), "
                f"got {tensor.shape}"
            )
        return tensor

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        self._keys[layer] = np.concatenate([self._keys[layer], keys], axis=0)
        self._values[layer] = np.concatenate([self._values[layer], values], axis=0)

    def install(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_layer(layer)
        keys = self._check_shape(keys, "keys")
        values = self._check_shape(values, "values")
        if keys.shape[0] != values.shape[0]:
            raise ConfigError("keys and values must cover the same tokens")
        self._keys[layer] = np.array(keys, copy=True)
        self._values[layer] = np.array(values, copy=True)

    def get(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        self._check_layer(layer)
        return self._keys[layer], self._values[layer]

    def truncate(self, n_tokens: int) -> None:
        if n_tokens < 0:
            raise ConfigError("cannot truncate to a negative length")
        for layer in range(self.config.n_layers):
            self._keys[layer] = self._keys[layer][:n_tokens]
            self._values[layer] = self._values[layer][:n_tokens]

    def clear(self) -> None:
        self.truncate(0)

    def nbytes(self) -> int:
        return sum(k.nbytes + v.nbytes for k, v in zip(self._keys, self._values))

    def equals(self, other, atol: float = 0.0) -> bool:
        if self.config.n_layers != other.config.n_layers:
            return False
        for layer in range(self.config.n_layers):
            k1, v1 = self.get(layer)
            k2, v2 = other.get(layer)
            if k1.shape != k2.shape or v1.shape != v2.shape:
                return False
            if atol == 0.0:
                if not (np.array_equal(k1, k2) and np.array_equal(v1, v2)):
                    return False
            else:
                if not (
                    np.allclose(k1, k2, rtol=0.0, atol=atol)
                    and np.allclose(v1, v2, rtol=0.0, atol=atol)
                ):
                    return False
        return True


def naive_restore_cache_from_hidden(
    model, hidden_states: list[np.ndarray], positions: np.ndarray | None = None
) -> NaiveKVCache:
    """The original layer-by-layer restoration loop.

    Projects each layer separately and installs with a defensive copy —
    two fresh allocations per layer.
    """
    if len(hidden_states) != model.config.n_layers:
        raise ConfigError(
            f"need hidden states for all {model.config.n_layers} layers, "
            f"got {len(hidden_states)}"
        )
    n = hidden_states[0].shape[0]
    pos = np.arange(n) if positions is None else np.asarray(positions)
    cache = NaiveKVCache(model.config)
    for layer, hidden in enumerate(hidden_states):
        if hidden.shape[0] != n:
            raise ConfigError("all layers must cover the same tokens")
        k, v = model.project_kv(layer, hidden, pos)
        cache.install(layer, k, v)
    return cache
