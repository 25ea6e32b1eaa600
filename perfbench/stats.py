"""Order statistics for the benchmark's end-to-end and per-layer reports."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first. A report uses the highest one
# that still has at least ten samples beyond it.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_MIN_BEYOND = 10


def tail(values):
    """(percentile, nearest-rank value) of the highest percentile with at
    least ten samples beyond it, or None when there are too few samples."""
    n = len(values)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= _TAIL_MIN_BEYOND:
            ordered = sorted(values)
            rank = max(1, math.ceil(pct / 100.0 * n))
            return pct, ordered[rank - 1]
    return None


def summary(values) -> dict:
    """Median, tail and sample count of one timing series."""
    out = {"count": len(values), "median": None, "tail_pct": None,
           "tail": None}
    if values:
        out["median"] = statistics.median(values)
        t = tail(values)
        if t is not None:
            out["tail_pct"], out["tail"] = t
    return out
