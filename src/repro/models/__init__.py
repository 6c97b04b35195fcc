"""Transformer model substrate: configs for the evaluated LLMs plus a real
numpy implementation used to validate HCache's lossless restoration."""

from repro.models.config import FP16_BYTES, MODELS, ModelConfig, model_preset
from repro.models.hidden_capture import HiddenCapture
from repro.models.kv_cache import KVCache
from repro.models.sampler import greedy, sample_temperature, sample_top_k
from repro.models.transformer import (
    BATCHED_DECODE_ATOL,
    ForwardResult,
    RestoreWorkspace,
    Transformer,
)
from repro.models.weights import LayerWeights, ModelWeights, init_weights

__all__ = [
    "BATCHED_DECODE_ATOL",
    "FP16_BYTES",
    "MODELS",
    "ForwardResult",
    "HiddenCapture",
    "KVCache",
    "LayerWeights",
    "ModelConfig",
    "ModelWeights",
    "RestoreWorkspace",
    "Transformer",
    "greedy",
    "init_weights",
    "model_preset",
    "sample_temperature",
    "sample_top_k",
]
