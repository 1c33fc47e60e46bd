"""The cross-policy arena: every figure's matrix, re-run per policy.

The REPS paper plots REPS against OPS/ECMP-style baselines only.  The
arena derives, from any registered :class:`FigureSpec`, a *cross-policy
variant*: the figure's canonical cells (the ones its matrix runs under
the pivot policy, ``reps`` by default) are re-targeted — via
:func:`repro.harness.sweep.replace_lb` — onto every requested policy,
so RepFlow, PRIME and Sprinklers face exactly the scenarios the paper
measured REPS on.  Nothing else about the tasks changes — except that
competitor cells cap the simulation horizon at
:data:`ARENA_HORIZON_US`, so a policy that cannot finish a scenario
scores a quick DNF instead of simulating the base figure's unbounded
horizon — which means:

- pivot-policy cells are content-identical to the base figure's and
  come straight from the shared campaign store (cross-figure dedup);
- derived figures are *additions* — base figures, their tables and the
  committed trend record are untouched, so ``figures trend --strict``
  sees new ``arena_*`` rows as benign ``[NEW]`` entries, never drift.

Derived specs are ordinary :class:`FigureSpec` objects (ids
``arena_<fig_id>``, tag ``arena``) and run through the normal campaign
machinery; their check claims that every policy finished every cell,
so a policy that cannot survive a figure's scenario shows up as a
``[FAIL]`` badge in REPRODUCTION.md rather than a silent ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence

from ..harness.sweep import SweepTask, replace_lb
from .registry import REGISTRY, FigureResult, FigureSpec, Key, TableDoc

#: policy whose cells define a figure's canonical scenario slice
DEFAULT_PIVOT = "reps"

#: the head-to-head set the CI arena job runs (paper hero + classic
#: baseline + the three competitors the paper does not plot)
DEFAULT_POLICIES = ("reps", "ecmp", "repflow", "prime", "sprinklers")

#: horizon cap for non-pivot arena cells, in simulated microseconds.
#: Base figures run with effectively unbounded horizons (Fig. 8 sets
#: 50 s) because their own policies are known to finish; a competitor
#: that *cannot* finish — ECMP pinned onto a failed cable under a
#: collective, say — would otherwise simulate the full horizon of
#: background traffic and RTO storms per cell.  One simulated second
#: is orders of magnitude past any completing run on these fabrics;
#: a cell still incomplete at the cap is scored DNF (did not finish)
#: by the table and fails the arena check.  Pivot cells keep their
#: figure's declared horizon — they must stay bit-identical to the
#: base figure's artifacts for the shared-store dedup.
ARENA_HORIZON_US = 1_000_000.0


def _capped(task: SweepTask) -> SweepTask:
    scenario = dict(task.scenario)
    max_us = scenario.get("max_us")
    if max_us is not None and max_us <= ARENA_HORIZON_US:
        return task
    scenario["max_us"] = ARENA_HORIZON_US
    return dc_replace(task, scenario=tuple(sorted(scenario.items())))


def _cell_done(result: FigureResult, key: Key) -> bool:
    try:
        return (result.value(key, "flows_completed") ==
                result.value(key, "flows_total"))
    except KeyError:  # pragma: no cover - metric-less artifact guard
        return True


def _policy_cells(result: FigureResult, policy: str) -> List[Key]:
    return [key for key in result.keys() if key[0] == policy]


def _mean(values: Sequence[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    if not finite or len(finite) != len(values):
        return float("inf")
    return sum(finite) / len(finite)


def _arena_table(policies: Sequence[str],
                 metric: str) -> Callable[[FigureResult], TableDoc]:
    def table(result: FigureResult) -> TableDoc:
        pivot = policies[0]
        done = {p: all(_cell_done(result, k)
                       for k in _policy_cells(result, p))
                for p in policies}
        means = {p: _mean([result.value(k)
                           for k in _policy_cells(result, p)])
                 for p in policies}
        rows = []
        for policy in policies:
            mean = means[policy]
            if not done[policy]:
                rows.append([policy, "DNF", "—"])
                continue
            ratio = (mean / means[pivot]
                     if math.isfinite(mean) and math.isfinite(means[pivot])
                     and means[pivot] > 0 else float("inf"))
            rows.append([policy, round(mean, 2), round(ratio, 3)])
        notes = [f"mean {metric} across the figure's {pivot}-cell "
                 f"scenarios, re-targeted per policy; `vs {pivot}` < 1 "
                 f"means a lower (usually better) metric than {pivot}.  "
                 f"DNF: the policy left flows incomplete at the arena "
                 f"horizon ({ARENA_HORIZON_US / 1e6:.0f} s simulated)."]
        return (["policy", f"mean {metric}", f"vs {pivot}"], rows,
                notes)
    return table


def _arena_check(policies: Sequence[str],
                 metric: str) -> Callable[[FigureResult], None]:
    def check(result: FigureResult) -> None:
        # completion first: max_fct-style metrics only aggregate
        # *finished* flows, so a DNF policy can still read finite
        dnf = sorted({key[0] for key in result.keys()
                      if not _cell_done(result, key)})
        result.expect(
            "every policy finishes every cell within the arena horizon "
            f"({ARENA_HORIZON_US:.0f} us simulated)"
            + (f"; DNF: {', '.join(dnf)}" if dnf else ""),
            len(dnf), "==", 0)
        incomplete = sorted({
            key[0] for key in result.keys()
            if not math.isfinite(result.value(key))})
        result.expect(
            f"every policy has a finite {metric} in every cell"
            + (f"; non-finite: {', '.join(incomplete)}"
               if incomplete else ""),
            len(incomplete), "==", 0)
    return check


def arena_spec(base: FigureSpec,
               policies: Sequence[str] = DEFAULT_POLICIES, *,
               pivot: str = DEFAULT_PIVOT) -> Optional[FigureSpec]:
    """Derive ``base``'s cross-policy variant, or ``None`` when the
    figure has no policy axis (an arena spec itself, time-series
    metric, or no ``pivot`` cell in its matrix at the current scale)."""
    if "arena" in base.tags or base.metric_kind != "scalar":
        return None
    try:
        matrix = base.build()
    except Exception:
        # fail-soft like the campaign: a figure whose matrix cannot
        # build has no arena variant (the base spec will surface the
        # error itself when run)
        return None
    cells: Dict[Key, SweepTask] = {
        key: task for key, task in matrix.items()
        if getattr(task, "lb", None) == pivot
        and task.workload.kind != "model"}
    if not cells:
        return None
    policies = list(dict.fromkeys(policies))  # stable de-dup

    def build() -> Dict[Key, SweepTask]:
        out: Dict[Key, SweepTask] = {}
        for policy in policies:
            for key, task in cells.items():
                out[(policy, key)] = (task if policy == pivot
                                      else _capped(
                                          replace_lb(task, policy)))
        return out

    return FigureSpec(
        fig_id=f"arena_{base.fig_id}",
        figure="Arena",
        title=f"Cross-policy arena: {base.title}",
        build=build,
        metric=base.metric,
        table=_arena_table(policies, base.metric),
        check=_arena_check(policies, base.metric),
        tags=("arena",) + tuple(t for t in base.tags if t != "arena"),
        doc=(f"Head-to-head derived from `{base.fig_id}`: its "
             f"{len(cells)} `{pivot}` cell(s) re-run under "
             f"{', '.join(policies)} with every other parameter "
             "unchanged (competitor horizons capped at "
             f"{ARENA_HORIZON_US / 1e6:.0f} s simulated — a cell "
             "still incomplete there scores DNF)."),
    )


def arena_specs(policies: Sequence[str] = DEFAULT_POLICIES, *,
                bases: Optional[Sequence[FigureSpec]] = None,
                pivot: str = DEFAULT_PIVOT) -> List[FigureSpec]:
    """Cross-policy variants of ``bases`` (default: the whole
    catalogue), in registry order, skipping axis-less figures."""
    if bases is None:
        bases = list(REGISTRY.values())
    out = []
    for base in bases:
        spec = arena_spec(base, policies, pivot=pivot)
        if spec is not None:
            out.append(spec)
    return out
