"""Batched balls-into-bins: the OPS queueing model (Sec. 5.1).

At each round every non-empty bin (output port) removes one ball
(transmits one packet), then ``round(lam * n)`` new balls (packets)
arrive and are placed uniformly at random — oblivious spraying.  At
injection rates approaching 1 the maximum load grows without bound
(Berenbrink et al. [11]), which is Fig. 17's demonstration and the
theoretical core of why OPS builds queues even in symmetric networks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class BinsTrace:
    """Round-by-round result of a balls-into-bins simulation."""

    n_bins: int
    max_load: List[int] = field(default_factory=list)
    total_balls: List[int] = field(default_factory=list)

    @property
    def final_max_load(self) -> int:
        return self.max_load[-1] if self.max_load else 0

    def averaged_max_load(self, window: int = 50) -> float:
        """Mean max load over the trailing ``window`` rounds."""
        if not self.max_load:
            return 0.0
        tail = self.max_load[-window:]
        return sum(tail) / len(tail)


def batched_balls_into_bins(
    n_bins: int,
    rounds: int,
    *,
    lam: float = 1.0,
    rng: Optional[random.Random] = None,
) -> BinsTrace:
    """Simulate the OPS model for ``rounds`` steps from empty bins at
    injection rate ``lam`` (fraction of full throughput; 1.0 = n balls
    per round)."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    rng = rng or random.Random()
    loads = [0] * n_bins
    trace = BinsTrace(n_bins)
    carry = 0.0
    for _ in range(rounds):
        # service: every non-empty bin transmits one ball
        for i in range(n_bins):
            if loads[i] > 0:
                loads[i] -= 1
        # arrivals: lam * n balls, fractional part carried across rounds
        carry += lam * n_bins
        arrivals = int(carry)
        carry -= arrivals
        for _ in range(arrivals):
            loads[rng.randrange(n_bins)] += 1
        trace.max_load.append(max(loads))
        trace.total_balls.append(sum(loads))
    return trace


def average_max_load_curve(
    n_bins: int,
    rounds: int,
    *,
    lam: float = 0.99,
    repeats: int = 5,
    seed: int = 0,
) -> List[float]:
    """Average of the max-load trajectory over ``repeats`` runs
    (the Fig. 17 series for one port count)."""
    acc = [0.0] * rounds
    for r in range(repeats):
        trace = batched_balls_into_bins(
            n_bins, rounds, lam=lam, rng=random.Random(seed + r))
        for i, v in enumerate(trace.max_load):
            acc[i] += v
    return [a / repeats for a in acc]
