"""Report generation: the self-documenting reproduction artifacts.

One campaign run (:func:`repro.harness.campaign.run_campaign`) feeds
two generators:

- :mod:`repro.report.reproduction` renders ``REPRODUCTION.md`` — the
  consolidated measured-vs-paper report with per-figure fidelity badges
  and a provenance header — plus the machine-readable
  ``campaign.json``.
- :mod:`repro.report.figure_docs` renders ``docs/figures/`` straight
  from the figure registry (no execution), so figure documentation is
  a pure function of the specs and can never drift from code.
- :mod:`repro.report.trend` compares two ``campaign.json`` records
  (``repro figures trend``): badge transitions, metric drift, and
  coverage changes between runs, the CI regression gate.
- :mod:`repro.report.live` renders the self-refreshing status page
  ``repro orchestrate`` rewrites as shards launch, merge and retry.

All of them share :mod:`repro.report.provenance` for the environment
header.
"""

from .. import _lazy_exports

__all__ = [
    "TrendReport",
    "campaign_doc",
    "collect_provenance",
    "diff_campaigns",
    "docs_drift",
    "load_record",
    "render_figure_page",
    "render_index",
    "render_live_html",
    "render_reproduction",
    "render_status_text",
    "render_trend",
    "write_campaign_report",
    "write_figure_docs",
    "write_live_html",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".figure_docs": ("docs_drift", "render_figure_page", "render_index",
                     "write_figure_docs"),
    ".live": ("render_live_html", "render_status_text", "write_live_html"),
    ".provenance": ("collect_provenance",),
    ".reproduction": ("campaign_doc", "render_reproduction",
                      "write_campaign_report"),
    ".trend": ("TrendReport", "diff_campaigns", "load_record",
               "render_trend"),
})
