"""ASCII chart rendering and multi-seed statistics."""

from __future__ import annotations

import pytest

from repro.harness.stats import Aggregate
from repro.report.text import hbar, render_port_series, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_monotone_levels(self):
        s = sparkline([0, 50, 100], max_value=100)
        assert len(s) == 3
        assert s[0] < s[1] < s[2] or (s[0] == " " and s[2] == "@")

    def test_clamps_out_of_range(self):
        s = sparkline([-10, 1000], max_value=100)
        assert s[0] == " "
        assert s[1] == "@"

    def test_fixed_scale_comparable(self):
        a = sparkline([100], max_value=400)
        b = sparkline([400], max_value=400)
        assert a != b


class TestHbar:
    def test_full_and_empty(self):
        assert hbar(100, 100, width=10) == "#" * 10
        assert hbar(0, 100, width=10) == "." * 10

    def test_half(self):
        assert hbar(50, 100, width=10) == "#" * 5 + "." * 5

    def test_zero_scale(self):
        assert hbar(5, 0) == ""


class TestPanel:
    def test_renders_each_port(self):
        panel = render_port_series(
            [0.0, 20.0, 40.0],
            {"up0": [0, 200, 400], "up1": [400, 200, 0]},
            max_value=400.0)
        assert "up0" in panel and "up1" in panel
        assert "400" in panel

    def test_no_samples(self):
        assert "(no samples)" in render_port_series([], {})

    def test_from_real_recorder(self):
        from helpers import small_network
        net = small_network()
        rec = net.record_ports(net.tree.t0s[0].up_ports, bucket_us=5.0)
        net.add_flow(0, 4, 2 << 20)
        net.run(max_us=20_000)
        panel = render_port_series(rec.times_us, rec.util_gbps,
                                   max_value=400.0)
        assert len(panel.splitlines()) == 1 + len(rec.util_gbps)


class TestAggregate:
    def test_mean_and_bounds(self):
        a = Aggregate([1.0, 2.0, 3.0])
        assert a.mean == 2.0
        assert a.min == 1.0 and a.max == 3.0

    def test_single_sample_no_ci(self):
        a = Aggregate([5.0])
        assert a.ci95 == 0.0
        assert a.stdev == 0.0

    def test_ci_shrinks_with_agreement(self):
        tight = Aggregate([10.0, 10.1, 9.9])
        loose = Aggregate([5.0, 15.0, 10.0])
        assert tight.ci95 < loose.ci95

    def test_str(self):
        assert "n=2" in str(Aggregate([1.0, 2.0]))

    @pytest.mark.parametrize("n, t", [
        (11, 2.228), (12, 2.201), (31, 2.042), (36, 2.042),
        (41, 2.021), (100, 2.000), (121, 1.980), (122, 1.96)])
    def test_ci_uses_t_for_its_df(self, n, t):
        """Past df 10 the interval still uses Student's t, taken at the
        largest tabulated df not above n - 1; 1.96 only past df 120."""
        a = Aggregate([float(i % 2) for i in range(n)])
        assert a.ci95 == pytest.approx(t * a.stdev / n ** 0.5)


class TestSeedRobustness:
    def test_real_simulation_seed_robust(self):
        """REPS <= OPS on tornado across seeds (mean ratio <= 1)."""
        from helpers import small_network
        from repro.workloads import tornado

        def fct(lb, seed):
            net = small_network(lb=lb, seed=seed)
            for s, d in tornado(8):
                net.add_flow(s, d, 512 * 1024)
            return net.run(max_us=50_000).max_fct_us

        ratio = Aggregate([fct("reps", seed) / fct("ops", seed)
                           for seed in (1, 2, 3)])
        assert ratio.mean <= 1.02
