"""The declarative figure registry.

Every paper figure/table/ablation is a :class:`FigureSpec`: a named
builder that expands the figure's scenario matrix into
:class:`~repro.harness.sweep.SweepTask`s, the metric each cell reports,
a table renderer, and the paper's claims.  The one executor,
:func:`run_figures`, pushes any number of specs through a single
:func:`~repro.harness.sweep.run_sweep` — so every figure gets the same
parallelism, deterministic seeding, and content-keyed artifact caching,
and a benchmark file shrinks to ``run_figure(fig_id)`` plus a report.

Specs register at import time; importing :mod:`repro.scenarios` loads
the full catalogue.

Invariants:

- **Registration order is paper order.**  ``REGISTRY`` iterates in the
  order the spec modules register, which follows the paper's figure
  numbering; campaign reports rely on that order.
- **Matrices are lazy and deterministic.**  ``FigureSpec.build`` runs at
  execution time, so it resolves the current ``REPRO_BENCH_SCALE``; for
  a fixed scale the same spec always expands to the same tasks with the
  same content keys.  Nothing about a figure's identity lives outside
  its spec, and the campaign record describes each figure's matrix
  from the tasks it ran, at the scale it ran.
- **Probe lifecycle.**  A spec that needs telemetry names result probes
  on its tasks (``SweepTask.probes``); the probes run once, inside the
  worker that simulated the task, and their scalar outputs ride the
  artifact's ``extra`` mapping.  ``FigureResult.value`` reads metrics
  and probe outputs through one namespace, so tables and shape checks
  do not care which side produced a number.
- **Claims are records, not asserts.**  A spec's ``check`` states the
  paper's shape claims (orderings and rough factors, not absolute
  numbers) as :meth:`FigureResult.expect` calls; each becomes an
  :class:`Expectation` with its measured value, gate and margin.  The
  campaign judges a figure from those records, so a verdict names
  every claim it missed and does not depend on ``python -O``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
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
    SweepResults,
    SweepTask,
    TaskFailed,
    TaskResult,
    run_sweep,
)

if TYPE_CHECKING:  # describe never loads the store's codec
    from ..harness.store import ColumnarStore

Key = Hashable
#: (headers, rows, notes) — what a figure prints/persists as its table
TableDoc = Tuple[Sequence[str], Sequence[Sequence[object]], Sequence[str]]

#: the comparisons a claim may make, measured on the left
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Expectation:
    """One paper claim as measured: ``measured op bound`` held or not."""

    claim: str
    measured: float
    op: str
    bound: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r} in claim "
                             f"{self.claim!r} (one of {', '.join(_OPS)})")

    @property
    def held(self) -> bool:
        """A non-finite measurement meets no claim."""
        return (math.isfinite(self.measured)
                and _OPS[self.op](self.measured, self.bound))

    @property
    def margin(self) -> float:
        """Signed relative clearance: > 0 held with room to spare,
        < 0 missed by that share of the bound (absolute when the bound
        is 0); ``==`` is never better than 0."""
        gap = self.bound - self.measured
        if self.op in (">", ">="):
            gap = -gap
        elif self.op == "==":
            gap = -abs(gap)
        return gap / abs(self.bound) if self.bound else gap

    def describe(self) -> str:
        return (f"{self.claim} ({self.measured:g} {self.op} "
                f"{self.bound:g})")


class FigureResult:
    """One executed figure: benchmark keys -> task results."""

    def __init__(self, spec: "FigureSpec", tasks: Dict[Key, SweepTask],
                 sweep: SweepResults) -> None:
        self.spec = spec
        self.tasks = tasks
        self.sweep = sweep
        self.expectations: List[Expectation] = []
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
        return self.spec.table(self)

    def expect(self, claim: str, measured: float, op: str,
               bound: float) -> None:
        """Record one paper claim: ``measured op bound``."""
        self.expectations.append(Expectation(claim, measured, op, bound))

    def check(self) -> List[Expectation]:
        """Run the spec's paper claims; every record, met or not."""
        self.expectations = []
        self.spec.check(self)
        return self.expectations


#: what executing a figure yields: its result, or what stopped it
FigureRun = Union[FigureResult, Exception]


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure declared as data.

    ``build`` returns the figure's matrix as ``{key: SweepTask}`` —
    evaluated lazily so the matrix can honour ``REPRO_BENCH_SCALE`` at
    run time.  ``table`` renders the report table; ``check`` records
    the paper's claims through :meth:`FigureResult.expect`.
    """

    fig_id: str
    figure: str                # the paper's name, e.g. "Fig. 7"
    title: str
    build: Callable[[], Dict[Key, SweepTask]]
    table: Callable[[FigureResult], TableDoc]
    check: Callable[[FigureResult], None]
    metric: str = "max_fct_us"
    #: how ``metric`` reads: ``"scalar"`` (a table cell) or
    #: ``"timeseries"`` (a windowed series probe output — the report
    #: renders the trajectory and campaign.json carries the arrays)
    metric_kind: str = "scalar"
    #: campaign filter labels (``repro figures run --all --tag sim``);
    #: by convention the first tag is the figure kind (sim | model)
    tags: Tuple[str, ...] = ()
    #: optional prose for the figure's ``REPRODUCTION.md`` section —
    #: what it demonstrates beyond what the title already says
    doc: str = ""


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
                store: Optional[ColumnarStore] = None,
                progress: bool = False,
                on_figure: Optional[Callable[[int, FigureRun], None]] = None
                ) -> Tuple[List[FigureRun], float]:
    """The one executor: plan -> run -> assemble, for any number of
    figures.

    *Plan*: every spec's matrix is expanded exactly once, concatenated
    in ``specs`` order.  *Run*: the whole list goes through **one**
    :func:`~repro.harness.sweep.run_sweep` — a key shared by several
    figures is "executed" by the first that needs it and "cached" for
    the rest, and all misses share one ``Pool.run``, so no figure
    boundary is a scheduling barrier.  *Assemble*: a figure becomes a
    :class:`FigureResult` the moment its last task lands, and
    ``on_figure(index, outcome)`` fires right then.

    Fail-soft: a figure whose ``build`` raised, or that owns a task
    that raised, yields that exception instead of a result; the others
    are unaffected.  Outcomes come back in ``specs`` order, with the
    seconds the sweep spent writing the store.
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

    store_write_s = 0.0
    try:
        store_write_s = run_sweep(flat, workers=workers, store=store,
                                  progress=progress,
                                  on_result=on_result).store_write_s
    except TaskFailed as exc:
        # a task that raised has already failed exactly the figures
        # owning it: every result landed
        store_write_s = exc.sweep.store_write_s
    except Exception as exc:
        # anything else — a store that cannot be written — fails the
        # figures still waiting
        for fig, outcome in enumerate(outcomes):
            if outcome is None:
                finish(fig, exc)
    return outcomes, store_write_s


def run_figure(spec, *, workers: int = 1,
               store: Optional[ColumnarStore] = None,
               progress: bool = False) -> FigureResult:
    """Run one figure — a campaign of one through :func:`run_figures`
    (``spec`` may be a :class:`FigureSpec` or a registry id); whatever
    stopped it from executing is raised."""
    if isinstance(spec, str):
        spec = get_figure(spec)
    (outcome,), _write_s = run_figures([spec], workers=workers,
                                       store=store, progress=progress)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
