"""Multi-seed experiment statistics.

The paper runs "each experiment multiple times to account for randomness
in the initial EVs" (Sec. 4.5.4).  :class:`Aggregate` summarises any
scalar metric over seeds with a mean and a t-distribution confidence
interval, so sweeps can report seed-robust numbers; :func:`cdf_points`
downsamples an empirical CDF for a figure's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: two-sided 95% t-critical values by degrees of freedom (df = n - 1)
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
        11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
        16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
        21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
        26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
        40: 2.021, 60: 2.000, 120: 1.980}


def _t95(df: int) -> float:
    """t for ``df``: the largest tabulated df not above it (t falls as
    df grows, so an untabulated df gets a slightly wider interval), the
    normal 1.96 past the table."""
    if df > 120:
        return 1.96
    while df not in _T95:
        df -= 1
    return _T95[df]


@dataclass
class Aggregate:
    """Mean and spread of one metric over repeated runs."""

    samples: List[float]

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n if self.samples else float("nan")

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((x - m) ** 2 for x in self.samples)
                         / (self.n - 1))

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval of the mean."""
        if self.n < 2:
            return 0.0
        return _t95(self.n - 1) * self.stdev / math.sqrt(self.n)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] of the samples."""
        # describe -> execute: the one percentile definition sits
        # beside the engine (sim/metrics.py)
        from ..sim.metrics import nearest_rank
        return nearest_rank(self.samples, p)

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else float("nan")

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else float("nan")

    def __str__(self) -> str:
        return f"{self.mean:.2f} +- {self.ci95:.2f} (n={self.n})"


def cdf_points(values: Sequence[float],
               n_points: int = 20) -> List[tuple]:
    """Downsampled empirical CDF of ``values`` as (value, probability)."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    idxs = sorted({min(n - 1, int(round(i * (n - 1) / (n_points - 1))))
                   for i in range(n_points)}) if n_points > 1 else [n - 1]
    return [(ordered[i], (i + 1) / n) for i in idxs]
