"""EVS load-imbalance model (Fig. 14)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.model_tasks import run_model
from repro.models.imbalance import (
    _BLOCK,
    _flow_kernel,
    imbalance_sweep,
    load_imbalance,
)
from repro.sim.switch import ecmp_hash


class TestMechanics:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            load_imbalance(evs_size=0, n_uplinks=8)
        with pytest.raises(ValueError):
            load_imbalance(evs_size=8, n_uplinks=0)
        with pytest.raises(ValueError):
            load_imbalance(evs_size=8, n_uplinks=8, n_flows=0)

    def test_the_hash_is_the_only_way_to_throw(self):
        """The ``rng.randrange`` branch is gone with its switch."""
        with pytest.raises(TypeError):
            load_imbalance(evs_size=8, n_uplinks=8, use_ecmp_hash=False)

    def test_deterministic_under_seed(self):
        a = load_imbalance(evs_size=256, n_uplinks=8, repeats=5, seed=3)
        b = load_imbalance(evs_size=256, n_uplinks=8, repeats=5, seed=3)
        assert a.samples == b.samples

    def test_imbalance_nonnegative(self):
        st = load_imbalance(evs_size=64, n_uplinks=32, repeats=10, seed=1)
        assert all(s >= -1e-9 for s in st.samples)

    def test_percentiles_ordered(self):
        st = load_imbalance(evs_size=128, n_uplinks=32, repeats=40, seed=2)
        assert st.p2_5 <= st.average <= st.p97_5


def oracle_samples(evs_size, n_uplinks, n_flows, repeats, seed):
    """``load_imbalance``'s trials with the public ``ecmp_hash`` called
    per ball — the reference loop the lane kernel must equal exactly."""
    rng = random.Random(seed)
    samples = []
    for _ in range(repeats):
        loads = [0] * n_uplinks
        for _flow in range(n_flows):
            src, dst = rng.getrandbits(32), rng.getrandbits(32)
            salt = rng.getrandbits(63)
            for ev in range(evs_size):
                loads[ecmp_hash(src, dst, ev, salt) % n_uplinks] += 1
        samples.append(max(loads) / (evs_size * n_flows / n_uplinks) - 1.0)
    return samples


#: a few lanes, one lane short of a block, exactly one, one over (a
#: one-lane last block), and two blocks plus a ragged tail
EVS_SIZES = (1, 2, 31, 300, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)
#: both finishers and their border: powers of two up to one byte, their
#: neighbours, and counts past it
UPLINKS = st.one_of(st.integers(1, 300),
                    st.sampled_from((1, 32, 128, 255, 256, 257)))


def field(bits):
    """A ``bits``-wide header field, its extremes drawn half the time."""
    top = 2 ** bits - 1
    return st.sampled_from((0, 1, top)) | st.integers(0, top)


class TestLaneKernelEqualsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(evs_size=st.sampled_from(EVS_SIZES), n_uplinks=UPLINKS,
           n_flows=st.integers(1, 3), repeats=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32))
    def test_random_flows_land_where_ecmp_hash_puts_them(
            self, evs_size, n_uplinks, n_flows, repeats, seed):
        """Random (src, dst, salt) per flow, every ev of its EVS, across
        block boundaries and both finishers: the lane-parallel mix is
        ``sim.switch.ecmp_hash`` exactly (float-for-float samples)."""
        got = load_imbalance(evs_size=evs_size, n_uplinks=n_uplinks,
                             n_flows=n_flows, repeats=repeats, seed=seed)
        assert got.samples == oracle_samples(
            evs_size, n_uplinks, n_flows, repeats, seed)

    @settings(max_examples=60, deadline=None)
    @given(src=field(32), dst=field(32), salt=field(63),
           evs_size=st.sampled_from(EVS_SIZES), n_uplinks=UPLINKS)
    def test_one_flow_with_chosen_header_fields(
            self, src, dst, salt, evs_size, n_uplinks):
        """Header fields hypothesis picks (the RNG never draws 0 or all
        ones): the flow key wraps 64 bits, the top lane of a block holds
        the largest ``ev * c_ev``, and ``loads`` is added to, not reset."""
        loads = [7] * n_uplinks
        _flow_kernel(evs_size, n_uplinks)(src, dst, salt, loads)
        want = [7] * n_uplinks
        for ev in range(evs_size):
            want[ecmp_hash(src, dst, ev, salt) % n_uplinks] += 1
        assert loads == want

    #: committed campaign.json, fig14 (scale-independent matrix):
    #: exponent -> (ours_1flow, ours_32flow)
    FIG14_CELLS = {5: (2.75, 0.391), 6: (1.625, 0.279),
                   8: (0.797, 0.115), 10: (0.404, 0.063),
                   12: (0.196, 0.032), 14: (0.093, 0.017),
                   16: (0.045, 0.008)}

    @pytest.mark.parametrize("exponent", sorted(FIG14_CELLS))
    def test_fig14_cells_pinned(self, exponent):
        one, many = self.FIG14_CELLS[exponent]
        for n_flows, repeats, want in ((1, 40, one), (32, 6, many)):
            out = run_model("imbalance", {
                "evs_exponent": exponent, "n_uplinks": 32,
                "n_flows": n_flows, "repeats": repeats}, 14 + exponent)
            assert round(out["average"], 3) == want


class TestPaperClaims:
    def test_imbalance_decreases_with_evs(self):
        """Fig. 14a: 2^5 EVs ~2.9 imbalance, 2^16 ~0.05."""
        small = load_imbalance(evs_size=32, n_uplinks=32,
                               repeats=30, seed=4)
        large = load_imbalance(evs_size=65536, n_uplinks=32,
                               repeats=10, seed=4)
        assert small.average > 1.0
        assert large.average < 0.1
        assert small.average > 10 * large.average

    def test_more_flows_reduce_imbalance(self):
        """Fig. 14b: 32 flows see far lower imbalance than 1."""
        one = load_imbalance(evs_size=256, n_uplinks=32,
                             n_flows=1, repeats=20, seed=5)
        many = load_imbalance(evs_size=256, n_uplinks=32,
                              n_flows=32, repeats=5, seed=5)
        assert many.average < one.average

    def test_paper_thresholds(self):
        """<2^8 EVs -> >10% imbalance with 32 flows; 2^16 -> <2%."""
        small = load_imbalance(evs_size=128, n_uplinks=32, n_flows=32,
                               repeats=5, seed=6)
        assert small.average > 0.10
        # the 2^16 claim is covered (cheaply) by the 1-flow variant above

    def test_sweep_is_monotone_overall(self):
        stats = imbalance_sweep(evs_exponents=(5, 8, 11, 14),
                                n_uplinks=32, repeats=10, seed=7)
        avgs = [s.average for s in stats]
        assert avgs[0] > avgs[-1]
        assert all(a >= 0 for a in avgs)
