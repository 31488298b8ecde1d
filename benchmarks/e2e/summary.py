"""Sample summaries the harness reports: supported tail percentile,
the quiet half of a run's slices, and the quartile spread two sets of
runs are compared by.  Pure functions over lists of numbers; no repro imports.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: The named tail percentile; windows too short to support it report the
#: highest percentile they do support.
TAIL_PERCENTILE = 99.0

#: Samples that must lie beyond a percentile before it is reported
#: (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * pct // 100))      # ceil
    return sorted_values[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: p99, or below 1 000 samples the highest
    percentile with :data:`MIN_BEYOND` samples beyond it (never below the
    median).  The rank falls one sample at a time as the sample shrinks,
    so a run a few samples short of p99 reports p98.9, not another rung
    of a ladder."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail of an empty sample")
    rank = max(min(-(-n * TAIL_PERCENTILE // 100), n - MIN_BEYOND),
               -(-n // 2))
    return ordered[int(rank) - 1], 100.0 * rank / n


def quiet_half(slices: Sequence[T], rate: Callable[[T], float]) -> List[T]:
    """The half of a run's slices (rounded up) with the highest ``rate``.

    The host is shared: a neighbour's burst slows whatever slice it lands
    in, never speeds one up, so the slower slices measure the neighbour
    and the faster ones the program.  A change to the program moves every
    slice, and with them the faster half."""
    if not slices:
        raise ValueError("no slices to choose from")
    ranked = sorted(slices, key=rate, reverse=True)
    return ranked[:-(-len(ranked) // 2)]


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median — the spread the driver
    and ``compare.py`` hold against a metric's bound."""
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(mid) if mid else 0.0}


def max_relative_disagreement(values: Sequence[float]) -> float:
    """(max - min) / median over a set of repeated measurements."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0

