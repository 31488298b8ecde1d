"""The one summary of a sample set the bench package uses.

The simulator is deterministic per seed; statistical claims (means,
spreads, confidence intervals) come from running the same experiment under
several seeds.  :class:`Summary` carries the moments benchmark tables
print and the nearest-rank ``median``/``p95`` that
:mod:`repro.bench.regression` records and gates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Aggregated measurements from repeated deterministic runs."""

    samples: tuple

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    def _rank(self, q: float) -> float:
        ordered = sorted(self.samples)
        return ordered[max(1, math.ceil(q * len(ordered))) - 1]

    @property
    def median(self) -> float:
        """Nearest-rank median (always one of the samples)."""
        return self._rank(0.50)

    @property
    def p95(self) -> float:
        """Nearest-rank 95th percentile (always one of the samples)."""
        return self._rank(0.95)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for n < 2)."""
        if self.n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((x - mean) ** 2 for x in self.samples)
                         / (self.n - 1))

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of a normal-approximation 95% confidence interval.

        With the handful of seeds benches use this is indicative, not
        rigorous — the tables label it ±.
        """
        if self.n < 2:
            return 0.0
        return 1.96 * self.stdev / math.sqrt(self.n)

    def format(self, scale: float = 1.0, digits: int = 2) -> str:
        """Render as ``mean ±ci`` after scaling (e.g. seconds→ms)."""
        return (f"{self.mean * scale:.{digits}f} "
                f"±{self.ci95_halfwidth * scale:.{digits}f}")


def summarize(samples: Sequence[float]) -> Summary:
    """Build a :class:`Summary`; rejects empty sample sets."""
    if not samples:
        raise ValueError("cannot summarize zero samples")
    return Summary(tuple(float(s) for s in samples))

