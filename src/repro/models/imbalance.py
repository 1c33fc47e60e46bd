"""EVS-size load-imbalance model (Sec. 4.5.2, Fig. 14).

Balls-into-bins analysis of how many entropy values a spraying scheme
needs: each active flow hashes its whole EVS onto the switch's uplinks
(bins); the load imbalance ``lambda = max_load / (m / n) - 1`` measures
how far the fullest uplink sits above the average.  Small EVSs leave
>10% imbalance even with many flows; 2^16 EVs get below 1% (Fig. 14b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean
from typing import List, Tuple


@dataclass
class ImbalanceStats:
    """Distribution of load imbalance over repeated draws."""

    evs_size: int
    n_uplinks: int
    n_flows: int
    samples: List[float]

    @property
    def average(self) -> float:
        return mean(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        if not self.samples:
            return 0.0
        data = sorted(self.samples)
        k = min(len(data) - 1,
                max(0, int(round(p / 100 * (len(data) - 1)))))
        return data[k]

    @property
    def p2_5(self) -> float:
        return self.percentile(2.5)

    @property
    def p97_5(self) -> float:
        return self.percentile(97.5)


def load_imbalance(
    *,
    evs_size: int,
    n_uplinks: int,
    n_flows: int = 1,
    repeats: int = 100,
    seed: int = 0,
    use_ecmp_hash: bool = True,
) -> ImbalanceStats:
    """Measure the EV->uplink load imbalance distribution.

    For each trial, every flow (with its own header fields, hence its own
    hash salt) throws one ball per EV in the EVS; balls land in the
    uplink chosen by the ECMP hash.  Matches the paper's setup: "for each
    active flow a number of balls equal to the EVS size, each ball a
    unique EV".
    """
    if n_uplinks < 1 or evs_size < 1 or n_flows < 1:
        raise ValueError("evs_size, n_uplinks and n_flows must be >= 1")
    rng = random.Random(seed)
    # the constants of repro.sim.switch.ecmp_hash, the public oracle
    # the inlined mix below is property-tested against
    m64 = (1 << 64) - 1
    c_src, c_dst = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
    c_ev, c_salt = 0x94D049BB133111EB, 0xD6E8FEB86659FD93
    samples: List[float] = []
    m = evs_size * n_flows  # total balls per trial
    avg = m / n_uplinks
    for _ in range(repeats):
        loads = [0] * n_uplinks
        for _flow in range(n_flows):
            if use_ecmp_hash:
                src = rng.getrandbits(32)
                dst = rng.getrandbits(32)
                salt = rng.getrandbits(63)
                # ecmp_hash(src, dst, ev, salt), inlined: the flow's
                # share of the key is constant across its EVs, and this
                # loop runs evs_size * n_flows * repeats times
                flow = src * c_src + dst * c_dst + salt * c_salt
                for ev in range(evs_size):
                    x = (flow + ev * c_ev) & m64
                    x ^= x >> 30
                    x = (x * c_dst) & m64
                    x ^= x >> 27
                    x = (x * c_ev) & m64
                    loads[(x ^ (x >> 31)) % n_uplinks] += 1
            else:
                for _ev in range(evs_size):
                    loads[rng.randrange(n_uplinks)] += 1
        samples.append(max(loads) / avg - 1.0)
    return ImbalanceStats(evs_size, n_uplinks, n_flows, samples)


def imbalance_sweep(
    *,
    evs_exponents: Tuple[int, ...] = tuple(range(5, 17)),
    n_uplinks: int = 32,
    n_flows: int = 1,
    repeats: int = 50,
    seed: int = 0,
) -> List[ImbalanceStats]:
    """The Fig. 14 sweep: imbalance vs EVS size 2^5 .. 2^16."""
    return [
        load_imbalance(evs_size=1 << e, n_uplinks=n_uplinks,
                       n_flows=n_flows, repeats=repeats, seed=seed + e)
        for e in evs_exponents
    ]
