"""Declarative figure registry: every paper figure as data.

Importing this package registers the full catalogue — Sec. 4 simulation
figures, the failure studies, the sensitivity ablations, and the
analytical models — each as a :class:`FigureSpec` whose matrix expands
into sweep tasks and executes through
:func:`repro.harness.sweep.run_sweep`.

    >>> from repro.scenarios import figure_ids, run_figure
    >>> "fig07" in figure_ids()
    True
"""

from .registry import (
    REGISTRY,
    Expectation,
    FigureResult,
    FigureSpec,
    TableDoc,
    figure_ids,
    get_figure,
    register,
    run_figure,
)

# importing the spec modules populates REGISTRY (paper order)
from . import baseline  # noqa: F401  (figs 2-6)
from . import timeseries  # noqa: F401  (fig 2 trajectories)
from . import failures  # noqa: F401  (figs 7-11, 22)
from . import sensitivity  # noqa: F401  (figs 12-16, 19, 21, 23 + ablations)
from . import analytic  # noqa: F401  (figs 14, 17-18, 20, 24, table 1)

# derived (not registered): cross-policy arena variants of the catalogue
from .arena import DEFAULT_POLICIES, arena_spec, arena_specs  # noqa: E402

__all__ = [
    "REGISTRY", "Expectation", "FigureSpec", "FigureResult", "TableDoc",
    "register", "get_figure", "figure_ids", "run_figure",
    "DEFAULT_POLICIES", "arena_spec", "arena_specs",
]
