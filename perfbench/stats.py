"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
import statistics

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values: list[float], p: float) -> tuple[float, int]:
    """The ``p``-th percentile by nearest rank, and how many samples lie beyond that rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(p, value, beyond)`` for the highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies; the median is
    returned then, and ``beyond`` says how thin it is.
    """
    best = (50.0, *nearest_rank(values, 50.0))
    for p in LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= MIN_BEYOND:
            best = (p, value, beyond)
    return best


def summary(values: list[float]) -> dict:
    """Median, tail and sample count of one timing distribution."""
    p, value, beyond = tail(values)
    return {"p50": statistics.median(values), "tail": value, "tail_p": p,
            "beyond": beyond, "n": len(values)}
