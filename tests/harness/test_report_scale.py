"""Reporting helpers and scale control."""

from __future__ import annotations

import pytest

from repro.harness.scale import FULL, QUICK, SMOKE, current_scale
from repro.harness.stats import cdf_points
from repro.report.text import format_table


class TestReport:
    def test_table_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", 0.001]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_cdf_points(self):
        pts = cdf_points(list(range(100)), n_points=5)
        assert pts[-1][1] == 1.0
        vals = [v for v, _ in pts]
        assert vals == sorted(vals)

    def test_cdf_empty(self):
        assert cdf_points([]) == []

    def test_inf_formatting(self):
        out = format_table("T", ["x"], [[float("inf")]])
        assert "inf" in out


class TestScale:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale() is QUICK

    def test_full_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert current_scale() is FULL

    def test_smoke_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert current_scale() is SMOKE
        assert SMOKE.msg_bytes(8) == 128 * 1024  # floor applies

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            current_scale()

    def test_msg_scaling_floors(self):
        assert QUICK.msg_bytes(0.001) == 128 * 1024
        assert FULL.msg_bytes(8) == 8 << 20

    def test_topo_overrides(self):
        t = QUICK.topo(tiers=2, oversubscription=2)
        assert t.n_hosts == QUICK.n_hosts
        assert t.oversubscription == 2
