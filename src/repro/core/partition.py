"""State partition schemes (§4.1.1).

A partition assigns every transformer layer one of three restoration
methods: HCache (hidden states), KV offload, or token recomputation.  The
paper's layer-wise partition keeps whole layers homogeneous; the token-wise
alternative (evaluated in the Fig. 13 ablation and rejected) splits the
token run instead.  Both are modelled here, together with the per-token
storage accounting behind Table 3: hidden layers store ``D`` elements per
token, KV layers ``2D``, and recomputed layers nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError, SchedulingError
from repro.models.config import ModelConfig


class LayerMethod(str, Enum):
    """How one layer's state is restored."""

    HIDDEN = "hidden"
    KV = "kv"
    RECOMPUTE = "recompute"


@dataclass(frozen=True)
class PartitionScheme:
    """A layer-wise assignment of restoration methods.

    Attributes:
        methods: ``methods[L]`` is the restoration method of layer ``L``.
            Token-recomputed layers must form a prefix — they rebuild their
            KV (and the boundary hidden state) from the embedding forward.
    """

    methods: tuple[LayerMethod, ...]

    def __post_init__(self) -> None:
        if not self.methods:
            raise SchedulingError("partition scheme must cover at least one layer")
        recompute = [i for i, m in enumerate(self.methods) if m is LayerMethod.RECOMPUTE]
        if recompute and recompute != list(range(len(recompute))):
            raise SchedulingError(
                f"recompute layers must be a prefix, got layers {recompute}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.methods)

    @property
    def n_hidden(self) -> int:
        """``L_H`` — layers restored from hidden states."""
        return sum(1 for m in self.methods if m is LayerMethod.HIDDEN)

    @property
    def n_kv(self) -> int:
        return sum(1 for m in self.methods if m is LayerMethod.KV)

    @property
    def n_recompute(self) -> int:
        return sum(1 for m in self.methods if m is LayerMethod.RECOMPUTE)

    @property
    def n_other(self) -> int:
        """``L_O`` — layers restored by the complementary method."""
        return self.n_layers - self.n_hidden

    def layers_with(self, method: LayerMethod) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.methods) if m is method)

    def describe(self) -> str:
        """Table 3-style summary, e.g. ``"31 H + 1 KV"``."""
        parts = [f"{self.n_hidden} H"]
        if self.n_kv:
            parts.append(f"{self.n_kv} KV")
        if self.n_recompute:
            parts.append(f"{self.n_recompute} RE")
        return " + ".join(parts)

    def storage_bytes_per_token(self, config: ModelConfig) -> int:
        """Stored bytes per context token under this scheme (Table 3).

        Hidden layers cost half a KV layer; recomputed layers cost nothing
        — the source of HCache's 1.92-2.40x storage saving.
        """
        if config.n_layers != self.n_layers:
            raise ConfigError(
                f"scheme covers {self.n_layers} layers, model has {config.n_layers}"
            )
        return (
            self.n_hidden * config.hidden_bytes_per_token_layer
            + self.n_kv * config.kv_bytes_per_token_layer
        )

    @classmethod
    def pure_hcache(cls, n_layers: int) -> "PartitionScheme":
        """All layers from hidden states (the HCache-O ablation variant)."""
        return cls(tuple(LayerMethod.HIDDEN for _ in range(n_layers)))

    @classmethod
    def pure_kv(cls, n_layers: int) -> "PartitionScheme":
        return cls(tuple(LayerMethod.KV for _ in range(n_layers)))

    @classmethod
    def pure_recompute(cls, n_layers: int) -> "PartitionScheme":
        return cls(tuple(LayerMethod.RECOMPUTE for _ in range(n_layers)))

    @classmethod
    def with_kv_suffix(cls, n_layers: int, n_kv: int) -> "PartitionScheme":
        """``n_layers - n_kv`` hidden layers followed by ``n_kv`` KV layers
        (Fig. 8b: KV offload complements HCache on the last layers)."""
        if not 0 <= n_kv <= n_layers:
            raise SchedulingError(f"n_kv {n_kv} out of range for {n_layers} layers")
        methods = [LayerMethod.HIDDEN] * (n_layers - n_kv) + [LayerMethod.KV] * n_kv
        return cls(tuple(methods))

    @classmethod
    def with_recompute_prefix(cls, n_layers: int, n_recompute: int) -> "PartitionScheme":
        """``n_recompute`` token-recomputed layers, then hidden layers
        (§4.1.2: recomputation must start from the embedding)."""
        if not 0 <= n_recompute <= n_layers:
            raise SchedulingError(
                f"n_recompute {n_recompute} out of range for {n_layers} layers"
            )
        methods = [LayerMethod.RECOMPUTE] * n_recompute + [LayerMethod.HIDDEN] * (
            n_layers - n_recompute
        )
        return cls(tuple(methods))


@dataclass(frozen=True)
class TokenPartition:
    """A token-wise split of the history (Fig. 8a, ablation only).

    Attributes:
        n_hidden_tokens: Tokens restored from hidden states on every layer.
        n_other_tokens: Tokens restored by the complementary method.
    """

    n_hidden_tokens: int
    n_other_tokens: int

    def __post_init__(self) -> None:
        if self.n_hidden_tokens < 0 or self.n_other_tokens < 0:
            raise SchedulingError("token partition counts must be non-negative")

    @property
    def total_tokens(self) -> int:
        return self.n_hidden_tokens + self.n_other_tokens
