"""Feed-forward network modules.

Two variants cover the evaluated model families: the three-matrix SwiGLU
FFN of Llama2 and the classic two-matrix GELU FFN of OPT.  Together with
attention these are exactly the modules HCache's restoration *skips* — the
source of its >= 6x compute saving (§3.2).

Every variant takes the dense product as ``matmul`` (default: the plain
``@``), so the packed model call can issue its small-batch products
through :func:`repro.models.tensor_ops.panelled_matmul` while the formula
lives here once.
"""

from __future__ import annotations

from operator import matmul as plain_matmul
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.models.tensor_ops import gelu, silu
from repro.models.weights import LayerWeights

MatMul = Callable[[np.ndarray, np.ndarray], np.ndarray]


def swiglu_ffn(
    x: np.ndarray, weights: LayerWeights, matmul: MatMul = plain_matmul
) -> np.ndarray:
    """Llama2-style FFN: ``down(silu(gate(x)) * up(x))``."""
    if weights.w_gate is None:
        raise ConfigError("SwiGLU FFN requires a gate projection")
    return matmul(
        silu(matmul(x, weights.w_gate)) * matmul(x, weights.w_up), weights.w_down
    )


def gelu_ffn(
    x: np.ndarray, weights: LayerWeights, matmul: MatMul = plain_matmul
) -> np.ndarray:
    """OPT-style FFN: ``fc2(gelu(fc1(x)))``."""
    return matmul(gelu(matmul(x, weights.w_up)), weights.w_down)


def ffn_forward(
    x: np.ndarray,
    weights: LayerWeights,
    n_ffn_mats: int,
    matmul: MatMul = plain_matmul,
) -> np.ndarray:
    """Dispatch to the configured FFN variant."""
    if n_ffn_mats == 3:
        return swiglu_ffn(x, weights, matmul)
    if n_ffn_mats == 2:
        return gelu_ffn(x, weights, matmul)
    raise ConfigError(f"unsupported FFN matrix count {n_ffn_mats}")
