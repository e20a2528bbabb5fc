"""Order statistics used by every report."""

from __future__ import annotations

import math
import statistics


def rank(n: int, pct: float) -> int:
    """Nearest-rank index (1-based) of the pct-th percentile of n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(values, pct: float):
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    ordered = sorted(values)
    k = rank(len(ordered), pct)
    return ordered[k - 1], len(ordered) - k


def median(values) -> float:
    return statistics.median(values) if values else 0.0
