"""The declarative figure registry.

Every paper figure/table/ablation is a :class:`FigureSpec`: a named
builder that expands the figure's scenario matrix into
:class:`~repro.harness.sweep.SweepTask`s, the metric each cell reports,
a table renderer, and the paper's shape assertions.  The one executor,
:func:`run_figures`, pushes any number of specs through a single
:func:`~repro.harness.sweep.run_sweep` — so every figure gets the same
parallelism, deterministic seeding, and content-keyed artifact caching,
and a benchmark file shrinks to ``run_figure(fig_id)`` plus a report.

Specs register at import time; importing :mod:`repro.scenarios` loads
the full catalogue.

Invariants:

- **Registration order is paper order.**  ``REGISTRY`` iterates in the
  order the spec modules register, which follows the paper's figure
  numbering; campaign reports and generated docs rely on that order.
- **Matrices are lazy and deterministic.**  ``FigureSpec.build`` runs at
  execution (or doc-generation) time, so it resolves the current
  ``REPRO_BENCH_SCALE``; for a fixed scale the same spec always expands
  to the same tasks with the same content keys.  Nothing about a
  figure's identity lives outside its spec — which is why
  ``docs/figures/`` pages generated from the registry cannot drift from
  the code.
- **Probe lifecycle.**  A spec that needs telemetry names result probes
  on its tasks (``SweepTask.probes``); the probes run once, inside the
  worker that simulated the task, and their scalar outputs ride the
  artifact's ``extra`` mapping.  ``FigureResult.value`` reads metrics
  and probe outputs through one namespace, so tables and shape checks
  do not care which side produced a number.
- **Checks assert shape, not absolute numbers** (orderings and rough
  factors vs the paper); a failing check raises :class:`AssertionError`
  and is reported as a fidelity divergence, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..harness.sweep import (
    ResultStore,
    SweepResults,
    SweepTask,
    TaskFailed,
    TaskResult,
    run_sweep,
)

Key = Hashable
#: (headers, rows, notes) — what a figure prints/persists as its table
TableDoc = Tuple[Sequence[str], Sequence[Sequence[object]], Sequence[str]]


class FigureResult:
    """One executed figure: benchmark keys -> task results."""

    def __init__(self, spec: "FigureSpec", tasks: Dict[Key, SweepTask],
                 sweep: SweepResults) -> None:
        self.spec = spec
        self.tasks = tasks
        self.sweep = sweep
        self._by_key: Dict[Key, TaskResult] = {
            key: sweep[task] for key, task in tasks.items()}

    def __getitem__(self, key: Key) -> TaskResult:
        return self._by_key[key]

    def __len__(self) -> int:
        return len(self._by_key)

    def keys(self):
        return self._by_key.keys()

    def value(self, key: Key, metric: Optional[str] = None) -> float:
        """One cell of the figure (``spec.metric`` by default)."""
        return self._by_key[key].value(metric or self.spec.metric)

    def values(self, metric: Optional[str] = None) -> Dict[Key, float]:
        """Every cell, keyed the way the figure declared its matrix."""
        return {key: self.value(key, metric) for key in self._by_key}

    def series(self, key: Key,
               name: Optional[str] = None) -> List[float]:
        """One cell's time-series (``spec.metric`` by default).

        Only meaningful for specs whose tasks carry series probes
        (``metric_kind="timeseries"``); raises :class:`KeyError` when
        the artifact holds no such series.
        """
        series = self._by_key[key].series
        wanted = name or self.spec.metric
        if wanted not in series:
            raise KeyError(
                f"no series {wanted!r} for {key!r} "
                f"(have {sorted(series)})")
        return series[wanted]

    def all_series(self) -> Dict[Key, Dict[str, List[float]]]:
        """Every cell's series mapping (empty dicts for scalar-only
        artifacts) — what the report serializes into campaign.json."""
        return {key: dict(self._by_key[key].series)
                for key in self._by_key}

    def table_doc(self) -> TableDoc:
        """The figure's report table (headers, rows, notes)."""
        if self.spec.table is not None:
            return self.spec.table(self)
        if self.spec.metric_kind == "timeseries":
            # fallback for series figures: summary stats per row (the
            # full trajectory renders as the section's sparkline)
            rows = []
            for key, result in self._by_key.items():
                values = [v for v in result.series.get(self.spec.metric,
                                                       [])
                          if v is not None]
                rows.append((str(key), len(values),
                             round(sum(values) / len(values), 2)
                             if values else 0.0,
                             round(values[-1], 2) if values else 0.0))
            return (["scenario", "windows", f"mean_{self.spec.metric}",
                     f"last_{self.spec.metric}"], rows,
                    list(self.spec.notes))
        rows = [(str(key), round(self.value(key), 2))
                for key in self._by_key]
        return (["scenario", self.spec.metric], rows, list(self.spec.notes))

    def check(self) -> None:
        """Run the spec's paper-shape assertions (no-op if none)."""
        if self.spec.check is not None:
            self.spec.check(self)


#: what executing a figure yields: its result, or what stopped it
FigureRun = Union[FigureResult, Exception]


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure declared as data.

    ``build`` returns the figure's matrix as ``{key: SweepTask}`` —
    evaluated lazily so the matrix can honour ``REPRO_BENCH_SCALE`` at
    run time.  ``check`` raises :class:`AssertionError` when the
    measured shape diverges from the paper's claim.
    """

    fig_id: str
    figure: str                # the paper's name, e.g. "Fig. 7"
    title: str
    build: Callable[[], Dict[Key, SweepTask]]
    metric: str = "max_fct_us"
    #: how ``metric`` reads: ``"scalar"`` (a table cell) or
    #: ``"timeseries"`` (a windowed series probe output — the report
    #: renders the trajectory and campaign.json carries the arrays)
    metric_kind: str = "scalar"
    table: Optional[Callable[[FigureResult], TableDoc]] = None
    check: Optional[Callable[[FigureResult], None]] = None
    notes: Tuple[str, ...] = ()
    #: campaign filter labels (``repro figures run --all --tag sim``);
    #: by convention the first tag is the figure kind (sim | model)
    tags: Tuple[str, ...] = ()
    #: optional prose for the generated ``docs/figures/`` page — what
    #: the figure demonstrates beyond what the title already says
    doc: str = ""
    #: may the cross-policy arena (``--policies``) re-target this
    #: figure's matrix across sender policies?  Arena derivation
    #: (:mod:`repro.scenarios.arena`) additionally skips figures
    #: without a pivot-LB cell (analytic models) and time-series
    #: metrics, so ``False`` is only needed to opt a figure out.
    policy_axis: bool = True


REGISTRY: Dict[str, FigureSpec] = {}


def register(spec: FigureSpec) -> FigureSpec:
    """Add a spec to the catalogue (ids are unique)."""
    if spec.fig_id in REGISTRY:
        raise ValueError(f"duplicate figure id {spec.fig_id!r}")
    REGISTRY[spec.fig_id] = spec
    return spec


def get_figure(fig_id: str) -> FigureSpec:
    try:
        return REGISTRY[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {fig_id!r}; "
            f"`repro figures list` shows the catalogue") from None


def figure_ids() -> List[str]:
    """Registered ids, in registration (paper) order."""
    return list(REGISTRY)


def run_figures(specs: Sequence[FigureSpec], *, workers: int = 1,
                store: Optional[ResultStore] = None,
                progress: bool = False, backend=None,
                on_figure: Optional[Callable[[int, FigureRun], None]] = None
                ) -> List[FigureRun]:
    """The one executor: plan -> run -> assemble, for any number of
    figures.

    *Plan*: every spec's matrix is expanded exactly once, concatenated
    in ``specs`` order.  *Run*: the whole list goes through **one**
    :func:`~repro.harness.sweep.run_sweep` — a key shared by several
    figures is "executed" by the first that needs it and "cached" for
    the rest, and all misses share one ``Backend.run``, so no figure
    boundary is a scheduling barrier.  *Assemble*: a figure becomes a
    :class:`FigureResult` the moment its last task lands, and
    ``on_figure(index, outcome)`` fires right then.

    Fail-soft: a figure whose ``build`` raised, or that owns a task
    that raised, yields that exception instead of a result; the others
    are unaffected.  Outcomes come back in ``specs`` order.
    """
    outcomes: List[Optional[FigureRun]] = [None] * len(specs)

    def finish(fig: int, outcome: FigureRun) -> None:
        outcomes[fig] = outcome
        if on_figure is not None:
            on_figure(fig, outcome)

    matrices: List[Dict[Key, SweepTask]] = []
    flat: List[SweepTask] = []
    owner: List[int] = []      # flat task index -> figure index
    first: List[int] = []      # figure index -> its first flat index
    for fig, spec in enumerate(specs):
        try:
            tasks = spec.build()
        except Exception as exc:
            tasks = None
            finish(fig, exc)
        matrices.append(tasks)
        first.append(len(flat))
        if tasks is not None:
            flat.extend(tasks.values())
            owner.extend([fig] * len(tasks))
            if not tasks:
                finish(fig, FigureResult(specs[fig], tasks,
                                         SweepResults([])))
    waiting = [len(tasks or ()) for tasks in matrices]
    landed: List[Optional[TaskResult]] = [None] * len(flat)

    def on_result(index: int, result: TaskResult) -> None:
        landed[index] = result
        fig = owner[index]
        waiting[fig] -= 1
        if waiting[fig]:
            return
        mine = landed[first[fig]:first[fig] + len(matrices[fig])]
        error = next((r.error for r in mine if r.error), "")
        finish(fig, TaskFailed(error) if error else
               FigureResult(specs[fig], matrices[fig], SweepResults(mine)))

    try:
        run_sweep(flat, workers=workers, store=store, progress=progress,
                  backend=backend, on_result=on_result)
    except Exception as exc:
        # a task that raised has already failed exactly the figures
        # owning it (every result landed); anything else — a store that
        # cannot be written — fails the figures still waiting
        for fig, outcome in enumerate(outcomes):
            if outcome is None:
                finish(fig, exc)
    return outcomes


def run_figure(spec, *, workers: int = 1,
               store: Optional[ResultStore] = None,
               progress: bool = False, backend=None) -> FigureResult:
    """Run one figure — a campaign of one through :func:`run_figures`
    (``spec`` may be a :class:`FigureSpec` or a registry id); whatever
    stopped it from executing is raised."""
    if isinstance(spec, str):
        spec = get_figure(spec)
    (outcome,) = run_figures([spec], workers=workers, store=store,
                             progress=progress, backend=backend)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
