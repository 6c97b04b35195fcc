"""Percentiles, pass summaries and the tail-modality rule."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: The tail-modality rule: a tail percentile must not sit on the boundary
#: between two modes.  The share of samples above TAIL_FACTOR x median has
#: to stay MODALITY_MARGIN away from the mass beyond the percentile: outside
#: 5-15 % for a p90, outside 20-30 % for a p75.
TAIL_FACTOR = 2.0
MODALITY_MARGIN = 0.05


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile of ``n`` samples."""
    return n - math.ceil(n * q / 100.0)


def check_support(n: int, q: float) -> None:
    """Raise unless ``n`` samples leave MIN_SAMPLES_BEYOND beyond ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} must be inside (0, 100)")
    if samples_beyond(n, q) < MIN_SAMPLES_BEYOND:
        raise UnsupportedPercentile(
            f"p{q:g} of {n} samples leaves {samples_beyond(n, q)} beyond it; "
            f"{MIN_SAMPLES_BEYOND} are required"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (no interpolation between modes)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def pooled_percentile_supported(pass_samples: Sequence[Sequence[float]], q: float) -> None:
    """Support check over the samples of all measured passes together.

    Each pass reports its own percentile and the run reports the median of
    those; the passes replay one script, so the pooled sample is what has
    to carry ``q``.
    """
    check_support(sum(len(samples) for samples in pass_samples), q)


def summarize(values: Iterable[float]) -> dict[str, float]:
    """One metric's per-pass values: the reported value (their median), min and max."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    return {"value": statistics.median(values), "min": min(values), "max": max(values)}


def tail_share(values: Sequence[float]) -> float:
    """Share of samples above TAIL_FACTOR x the sample median."""
    if not values:
        return 0.0
    limit = TAIL_FACTOR * statistics.median(values)
    return sum(1 for v in values if v > limit) / len(values)


def modality_ok(share: float, q: float) -> bool:
    return abs(share - (1.0 - q / 100.0)) > MODALITY_MARGIN


def _over_median(width: float, values: Sequence[float]) -> float:
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if width == 0 else math.inf
    return width / abs(middle)


def relative_spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` — the A/A study's spread."""
    return _over_median(max(values) - min(values), values)


def iqr_spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` with ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _over_median(q3 - q1, values)
