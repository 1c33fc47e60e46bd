"""Report generation: the self-documenting reproduction artifacts.

- :mod:`repro.report.reproduction` turns one campaign run
  (:func:`repro.harness.campaign.run_campaign`) into its record,
  ``campaign.json``, and renders ``REPRODUCTION.md`` — the consolidated
  measured-vs-paper report with per-figure fidelity badges, scenario
  matrices and a provenance header — as a view of that record alone.
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
    "figure_text",
    "load_record",
    "render_reproduction",
    "render_trend",
    "write_campaign_report",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".provenance": ("collect_provenance",),
    ".reproduction": ("campaign_doc", "figure_text",
                      "render_reproduction", "write_campaign_report"),
    ".trend": ("TrendReport", "diff_campaigns", "load_record",
               "render_trend"),
})
