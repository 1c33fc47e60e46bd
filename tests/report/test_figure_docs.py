"""Generated docs/figures pages: determinism, content, drift check."""

from __future__ import annotations

import os

from repro.report import docs_drift, write_figure_docs
from repro.report.figure_docs import _render_tree, matrix_summary
from repro.scenarios import REGISTRY, figure_ids, get_figure

from helpers import stub_registry


def page(fig_id):
    """One figure's page as the docs tree renders it."""
    return _render_tree([get_figure(fig_id)])[f"{fig_id}.md"]


class TestRenderPage:
    def test_sim_figure_page_states_the_matrix(self):
        text = page("fig07")
        assert "# `fig07` — Fig. 7" in text
        assert "`max_fct_us`" in text
        assert "sim, failures" in text
        assert "fail_cable_schedule" in text
        assert "repro figures run fig07" in text
        assert "GENERATED" in text.splitlines()[0]

    def test_model_figure_page(self):
        text = page("table1")
        assert "`total_bits`" in text
        assert "model" in text

    def test_pages_independent_of_caller_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        baseline = page("fig03_synthetic")
        # an unset scale stays unset after the pinned expansion
        assert "REPRO_BENCH_SCALE" not in os.environ
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert page("fig03_synthetic") == baseline
        # the pinned scale is restored afterwards
        assert os.environ["REPRO_BENCH_SCALE"] == "smoke"

    def test_index_links_every_figure(self):
        index = _render_tree()["index.md"]
        for fig_id in figure_ids():
            assert f"[`{fig_id}`]({fig_id}.md)" in index


class TestMatrixSummary:
    def test_digest_of_probed_failure_matrix(self):
        spec = get_figure("fig07")
        summary = matrix_summary(spec.build().values())
        assert summary["lbs"] == ["ops", "reps"]
        assert summary["probes"] == ["freeze_entries"]
        assert summary["failures"]
        assert summary["tasks"] == len(spec.build())

    def test_model_tasks_have_no_topology(self):
        summary = matrix_summary(get_figure("table1").build().values())
        assert summary["topologies"] == []
        assert summary["lbs"] == ["model"]


class TestWriteAndDrift:
    def test_write_then_check_is_clean(self, tmp_path):
        written = write_figure_docs(str(tmp_path))
        assert len(written) == len(REGISTRY) + 1  # pages + index
        assert docs_drift(str(tmp_path)) == {}

    def test_stub_specs_roundtrip(self, tmp_path):
        specs = stub_registry()
        write_figure_docs(str(tmp_path), specs)
        assert sorted(os.listdir(tmp_path)) == \
            ["index.md", "stub_a.md", "stub_b.md", "stub_c.md"]
        assert docs_drift(str(tmp_path), specs) == {}

    def test_regenerating_clears_stale_generated_pages(self, tmp_path):
        """Renaming a spec leaves its old generated page behind; the
        next write removes it (so `repro docs figures` actually clears
        'extra' drift) without touching hand-written markdown."""
        specs = stub_registry()
        write_figure_docs(str(tmp_path), specs)
        write_figure_docs(str(tmp_path), specs[:2])  # stub_c "removed"
        assert not (tmp_path / "stub_c.md").exists()
        handwritten = tmp_path / "NOTES.md"
        handwritten.write_text("keep me\n")
        write_figure_docs(str(tmp_path), specs)
        assert handwritten.read_text() == "keep me\n"
        drift = docs_drift(str(tmp_path), specs)
        assert drift == {"NOTES.md": "extra"}

    def test_drift_detects_stale_missing_extra(self, tmp_path):
        specs = stub_registry()
        write_figure_docs(str(tmp_path), specs)
        (tmp_path / "stub_a.md").write_text("hand edited\n")
        (tmp_path / "stub_b.md").unlink()
        (tmp_path / "stub_zzz.md").write_text("orphan\n")
        drift = docs_drift(str(tmp_path), specs)
        assert drift == {"stub_a.md": "stale", "stub_b.md": "missing",
                         "stub_zzz.md": "extra"}

    def test_missing_directory_reports_everything_missing(self, tmp_path):
        specs = stub_registry()
        drift = docs_drift(str(tmp_path / "nope"), specs)
        assert set(drift.values()) == {"missing"}
        assert len(drift) == 4
