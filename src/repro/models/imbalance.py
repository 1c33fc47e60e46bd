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
from struct import iter_unpack
from typing import Callable, List, Tuple


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


#: the constants of :func:`repro.sim.switch.ecmp_hash`, the public
#: per-ball oracle the lane kernel is property-tested against
_M64 = (1 << 64) - 1
_C_SRC, _C_DST = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
_C_EV, _C_SALT = 0x94D049BB133111EB, 0xD6E8FEB86659FD93

#: EVs hashed per big-int operation: 4096 lanes of 128 bits keep every
#: temporary at 64 KiB however large the EVS is
_BLOCK = 4096


def _flow_kernel(evs_size: int,
                 n_uplinks: int) -> Callable[[int, int, int, List[int]], None]:
    """``throw(src, dst, salt, loads)``: add one flow's balls to ``loads``.

    ``ecmp_hash(src, dst, ev, salt) % n_uplinks`` for every ``ev`` of the
    EVS, a block of EVs at a time in one Python int with a 128-bit lane
    per EV.  A 64-bit lane value times a 64-bit constant fits its lane,
    so no carry crosses lanes, and every ``& mask`` clears the neighbour
    bits a right shift dragged in before the next multiply could spread
    them; the junk the last shift leaves sits above bit 64 of each lane,
    where neither finisher reads.
    """
    lanes = min(evs_size, _BLOCK)
    nbytes = 16 * lanes
    ones = ((1 << (8 * nbytes)) - 1) // ((1 << 128) - 1)  # bit 0 per lane
    mask = ones * _M64
    ramp = int.from_bytes(b"".join((i * _C_EV).to_bytes(16, "little")
                                   for i in range(lanes)), "little")
    # block to block every lane's ev grows by ``lanes``: unmasked keys
    # gain under 2^64 a block, so 2^128 is out of any EVS's reach
    stride = (lanes * _C_EV & _M64) * ones
    # a power-of-two uplink count is the low bits of each lane's low
    # byte, which ``table`` keeps; any other needs the whole 64-bit value
    low_byte = n_uplinks <= 256 and not n_uplinks & (n_uplinks - 1)
    table = bytes(i & (n_uplinks - 1) for i in range(256))

    def throw(src: int, dst: int, salt: int, loads: List[int]) -> None:
        flow = src * _C_SRC + dst * _C_DST + salt * _C_SALT
        keys = ramp + (flow & _M64) * ones
        for left in range(evs_size, 0, -lanes):
            x = keys & mask
            x = ((x ^ (x >> 30)) & mask) * _C_DST & mask
            x = ((x ^ (x >> 27)) & mask) * _C_EV & mask
            x ^= x >> 31
            # a short last block computes whole and keeps its low lanes
            raw = x.to_bytes(nbytes, "little")[:16 * min(left, lanes)]
            if low_byte:
                uplink = raw[::16].translate(table)
                for k in range(n_uplinks):
                    loads[k] += uplink.count(k)
            else:
                for (v,) in iter_unpack("<Q8x", raw):
                    loads[v % n_uplinks] += 1
            keys += stride

    return throw


def load_imbalance(
    *,
    evs_size: int,
    n_uplinks: int,
    n_flows: int = 1,
    repeats: int = 100,
    seed: int = 0,
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
    throw = _flow_kernel(evs_size, n_uplinks)
    samples: List[float] = []
    avg = evs_size * n_flows / n_uplinks  # mean balls per uplink
    for _ in range(repeats):
        loads = [0] * n_uplinks
        for _flow in range(n_flows):
            # the draw order is part of the result
            src = rng.getrandbits(32)
            dst = rng.getrandbits(32)
            salt = rng.getrandbits(63)
            throw(src, dst, salt, loads)
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
