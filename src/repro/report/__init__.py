"""Report generation: the self-documenting reproduction artifacts.

- :mod:`repro.report.reproduction` turns one campaign run
  (:func:`repro.harness.campaign.run_campaign`) into its record,
  ``campaign.json``, and renders ``REPRODUCTION.md`` — the consolidated
  measured-vs-paper report with per-figure fidelity badges and a
  provenance header — as a view of that record alone.
- :mod:`repro.report.figure_docs` renders ``docs/figures/`` straight
  from the figure registry (no campaign, no execution), so figure
  documentation is a pure function of the specs and can never drift
  from code.
- :mod:`repro.report.trend` compares two ``campaign.json`` records
  (``repro figures trend``): badge transitions, metric drift, and
  coverage changes between runs, the CI regression gate.

:mod:`repro.report.provenance` collects the environment header the
record carries, and :mod:`repro.report.text` holds the plain-text
tables and terminal charts (which the CLI prints too).
"""

from .. import _lazy_exports

__all__ = [
    "TrendReport",
    "campaign_doc",
    "collect_provenance",
    "diff_campaigns",
    "docs_drift",
    "figure_text",
    "load_record",
    "render_figure_page",
    "render_index",
    "render_reproduction",
    "render_trend",
    "write_campaign_report",
    "write_figure_docs",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".figure_docs": ("docs_drift", "render_figure_page", "render_index",
                     "write_figure_docs"),
    ".provenance": ("collect_provenance",),
    ".reproduction": ("campaign_doc", "figure_text",
                      "render_reproduction", "write_campaign_report"),
    ".trend": ("TrendReport", "diff_campaigns", "load_record",
               "render_trend"),
})
