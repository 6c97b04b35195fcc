"""GQA/MQA-aware restoration analysis (paper §7 extension).

The paper scopes HCache to MHA models: with multi-head attention the
hidden state (``D`` elements) is half the KV pair (``2D``), so caching it
saves transmission.  Grouped-query attention shrinks KV by the group
factor — with 8 KV heads out of 64, a KV pair is ``2D/8 = D/4``, *smaller*
than the hidden state — and the paper suggests handling this by "first
projecting the hidden states into a low-rank representation".

This module quantifies that regime change: :func:`analyze_gqa` schedules
a variant with the bubble-free scheduler, whose search needs no MHA byte
ratio (the §4.1.2 closed forms assume one), and reports where the
crossover sits for a model family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.profiler import profile_platform
from repro.core.scheduler import BubbleFreeScheduler, ScheduleDecision
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.simulator.hardware import Platform


@dataclass(frozen=True)
class GQAAnalysis:
    """Restoration economics of one attention configuration.

    Attributes:
        config: The analyzed model configuration.
        hidden_to_kv_ratio: Stored bytes of a hidden state over a KV pair
            (0.5 for MHA; > 1 once KV heads shrink below half the query
            heads).
        hcache_transmission_wins: True while hidden states are the smaller
            transfer — the classic HCache regime.
        decision: The scheduler's partition for this config.
    """

    config: ModelConfig
    hidden_to_kv_ratio: float
    hcache_transmission_wins: bool
    decision: ScheduleDecision


def with_kv_heads(config: ModelConfig, n_kv_heads: int) -> ModelConfig:
    """Derive a GQA variant of ``config`` with ``n_kv_heads`` KV heads."""
    if n_kv_heads <= 0 or config.n_heads % n_kv_heads != 0:
        raise ConfigError(
            f"n_kv_heads {n_kv_heads} must divide n_heads {config.n_heads}"
        )
    return replace(
        config,
        name=f"{config.name}-gqa{n_kv_heads}",
        n_kv_heads=n_kv_heads,
    )


def hidden_to_kv_ratio(config: ModelConfig) -> float:
    """Stored-byte ratio of hidden states to the KV pair (per token-layer)."""
    return config.hidden_bytes_per_token_layer / config.kv_bytes_per_token_layer


def analyze_gqa(
    config: ModelConfig, platform: Platform, n_tokens: int, n_kv_heads: int
) -> GQAAnalysis:
    """Analyze one GQA variant's restoration strategy.

    The decision is :meth:`BubbleFreeScheduler.schedule`'s optimum over
    the whole family, not the §4.1.2 closed forms, which encode "hidden =
    KV/2": under aggressive GQA the optimum can be pure KV offload.
    """
    variant = with_kv_heads(config, n_kv_heads)
    ratio = hidden_to_kv_ratio(variant)
    return GQAAnalysis(
        config=variant,
        hidden_to_kv_ratio=ratio,
        hcache_transmission_wins=ratio < 1.0,
        decision=BubbleFreeScheduler(variant.n_layers).schedule(
            profile_platform(variant, platform, n_tokens)
        ),
    )


def gqa_crossover_heads(config: ModelConfig) -> int:
    """The KV-head count at which hidden states stop being smaller.

    Hidden bytes = ``D``; KV bytes = ``2 * D * kv_heads / heads``.  They
    break even at ``kv_heads = heads / 2``; below that, storing raw KV is
    cheaper than storing hidden states and classic HCache loses its
    transmission edge (motivating the paper's low-rank suggestion).
    """
    return config.n_heads // 2
