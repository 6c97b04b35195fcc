"""Model configurations.

The paper evaluates Llama2-7B, Llama2-13B (one A100 each), and OPT-30B (four
A100s with tensor parallelism), with the maximum context expanded to 16K.
These presets carry the real architectural dimensions and are used by the
performance model; the ``tiny-*`` presets are small enough to execute for
real with the numpy transformer in correctness tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Bytes per element for the FP16 precision used by the serving system.
FP16_BYTES = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a decoder-only transformer LLM.

    Attributes:
        name: Preset name.
        n_layers: Number of transformer layers.
        hidden_size: Residual-stream width ``D`` (the paper's D_hidden).
        n_heads: Attention heads (MHA: ``n_kv_heads == n_heads``).
        n_kv_heads: Key/value heads; ``< n_heads`` models GQA (a paper §7
            extension; every paper experiment uses MHA).
        ffn_hidden_size: Intermediate FFN width.
        n_ffn_mats: Linear projections inside the FFN.  2 for the classic
            GELU FFN (OPT), 3 for SwiGLU (Llama2).
        vocab_size: Vocabulary size (affects weight bytes and embeddings).
        max_context: Maximum supported context length (expanded to 16K+ in
            the paper's setup).
        dtype_bytes: Bytes per parameter / activation element.
        norm: ``"rmsnorm"`` (Llama2) or ``"layernorm"`` (OPT).
        rope: Whether rotary position embeddings are applied to Q/K.
    """

    name: str
    n_layers: int
    hidden_size: int
    n_heads: int
    n_kv_heads: int
    ffn_hidden_size: int
    n_ffn_mats: int
    vocab_size: int
    max_context: int = 16384
    dtype_bytes: int = FP16_BYTES
    norm: str = "rmsnorm"
    rope: bool = True

    def __post_init__(self) -> None:
        if self.n_layers <= 0 or self.hidden_size <= 0:
            raise ConfigError("model must have positive layers and hidden size")
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError("n_heads must be a multiple of n_kv_heads")
        if self.norm not in ("rmsnorm", "layernorm"):
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.n_ffn_mats not in (2, 3):
            raise ConfigError("n_ffn_mats must be 2 (GELU FFN) or 3 (SwiGLU)")

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_size // self.n_heads

    @property
    def kv_size(self) -> int:
        """Width of the concatenated K (or V) projection output."""
        return self.n_kv_heads * self.head_dim

    @property
    def kv_bytes_per_token_layer(self) -> int:
        """KV-cache bytes for one token at one layer (K and V)."""
        return 2 * self.kv_size * self.dtype_bytes

    @property
    def hidden_bytes_per_token_layer(self) -> int:
        """Hidden-state bytes for one token at one layer.

        This is the quantity HCache stores instead of the KV pair; with MHA
        it is exactly half of :attr:`kv_bytes_per_token_layer` (§3.2).
        """
        return self.hidden_size * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        """Full-model KV-cache bytes for one token."""
        return self.kv_bytes_per_token_layer * self.n_layers

    @property
    def hidden_bytes_per_token(self) -> int:
        """Full-model hidden-state bytes for one token."""
        return self.hidden_bytes_per_token_layer * self.n_layers

    @property
    def layer_param_count(self) -> int:
        """Parameters in one transformer layer (attention + FFN + norms)."""
        d = self.hidden_size
        attn = d * d * 2 + d * self.kv_size * 2  # Wq, Wo, Wk, Wv
        ffn = self.n_ffn_mats * d * self.ffn_hidden_size
        norms = 2 * d
        return attn + ffn + norms

    @property
    def param_count(self) -> int:
        """Total parameter count including embeddings and the LM head."""
        embed = 2 * self.vocab_size * self.hidden_size
        return self.n_layers * self.layer_param_count + embed + self.hidden_size

    @property
    def weight_bytes(self) -> int:
        """Total model weight footprint in bytes."""
        return self.param_count * self.dtype_bytes


#: Presets used throughout the paper's evaluation plus tiny test models.
MODELS: dict[str, ModelConfig] = {
    "llama2-7b": ModelConfig(
        name="llama2-7b",
        n_layers=32,
        hidden_size=4096,
        n_heads=32,
        n_kv_heads=32,
        ffn_hidden_size=11008,
        n_ffn_mats=3,
        vocab_size=32000,
    ),
    "llama2-13b": ModelConfig(
        name="llama2-13b",
        n_layers=40,
        hidden_size=5120,
        n_heads=40,
        n_kv_heads=40,
        ffn_hidden_size=13824,
        n_ffn_mats=3,
        vocab_size=32000,
    ),
    "opt-30b": ModelConfig(
        name="opt-30b",
        n_layers=48,
        hidden_size=7168,
        n_heads=56,
        n_kv_heads=56,
        ffn_hidden_size=28672,
        n_ffn_mats=2,
        vocab_size=50272,
        max_context=32768,
        norm="layernorm",
        rope=False,
    ),
    "tiny-llama": ModelConfig(
        name="tiny-llama",
        n_layers=4,
        hidden_size=64,
        n_heads=4,
        n_kv_heads=4,
        ffn_hidden_size=172,
        n_ffn_mats=3,
        vocab_size=256,
        max_context=512,
    ),
    "tiny-opt": ModelConfig(
        name="tiny-opt",
        n_layers=3,
        hidden_size=48,
        n_heads=4,
        n_kv_heads=4,
        ffn_hidden_size=192,
        n_ffn_mats=2,
        vocab_size=128,
        max_context=256,
        norm="layernorm",
        rope=False,
    ),
}


def model_preset(name: str) -> ModelConfig:
    """Return a named model preset, raising :class:`ConfigError` if unknown."""
    key = name.lower()
    if key not in MODELS:
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(MODELS)}")
    return MODELS[key]
