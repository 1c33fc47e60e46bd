#!/usr/bin/env python3
"""Compare two sets of ledger records, row by (metric, workload).

    python benchmarks/ledger/compare.py A.jsonl B.jsonl

Each file holds ledger records, one JSON object per line, as
``run.py --out FILE`` appends them — any mix of workloads, traced or
not, one run or many of each.  A is the baseline (the parent commit, or
the first of two repeatability sets), B the candidate.

Per row it prints each side's median with quartiles and sample count
(across the side's runs; a side with a single run shows the quartiles
that run printed over its own repetitions) and a verdict:

- ``same`` / ``DIFFERS`` — a count that must repeat exactly
  (``engine.events``, drops, transport and campaign counts, ...),
  compared seed by seed over the seeds both sides ran;
- ``unchanged`` / ``improved`` / ``REGRESSED`` — a bounded end-to-end
  metric, against its bound from ``workloads.py`` (the same bounds
  ``BENCHMARK.json`` echoes): B's median is worse than A's by more than
  the bound, better by more than it, or neither;
- ``unresolved`` — neither, but one side's own quartile range is wider
  than the bound, so "unchanged" cannot be told from a change the noise
  hides.  Unless every B run beats every A run (then ``improved``);
- ``info`` — a per-layer timing: no bound, the delta is for reading.

Exit code 1 when any row is ``REGRESSED`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

Key = Tuple[str, bool]          # (workload, traced)
BAD = ("REGRESSED", "DIFFERS")


def load(path: str) -> Dict[Key, List[dict]]:
    """Ledger records of ``path`` grouped by (workload, traced)."""
    groups: Dict[Key, List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if doc.get("ledger") != 1:
                continue    # e.g. the driver's result line
            groups.setdefault((doc["workload"], bool(doc["traced"])),
                              []).append(doc)
    return groups


class Side:
    """One side of a row: the metric's value in every run."""

    def __init__(self, runs: Sequence[dict], section: str,
                 name: str) -> None:
        docs = []
        #: seed -> the values that seed's runs produced (exact rows
        #: compare like with like: counts depend on the seed)
        self.by_seed: Dict[int, set] = {}
        for run in runs:
            doc = run[section].get(name)
            if doc is not None:
                docs.append(doc)
                self.by_seed.setdefault(run["seed"], set()).add(
                    doc["value"])
        self.values = [d["value"] for d in docs]
        self.n = len(self.values)
        self.median = statistics.median(self.values) if docs else None
        if self.n >= 2:
            self.q1, self.q3 = W.quartiles(self.values)
        elif docs:
            # one run: the quartiles over its own repetitions, if any
            self.q1 = docs[0].get("q1", self.median)
            self.q3 = docs[0].get("q3", self.median)

    @property
    def spread(self) -> float:
        """Quartile range as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) \
            if self.median else 0.0

    def cell(self) -> str:
        if self.median is None:
            return "-"
        return (f"{self.median:.6g} [{self.q1:.6g}, {self.q3:.6g}] "
                f"n={self.n}")


def verdict(a: Side, b: Side, *, better: str, bound: Optional[float],
            exact: bool) -> str:
    if a.median is None or b.median is None:
        return "DIFFERS"            # a metric one side could not produce
    if exact:
        shared = set(a.by_seed) & set(b.by_seed)
        if not shared:
            return "info"           # no seed in common: nothing to equate
        return "same" if all(
            len(a.by_seed[seed] | b.by_seed[seed]) == 1
            for seed in shared) else "DIFFERS"
    if bound is None:
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    # positive = B is worse, as a share of A
    worse = sign * (b.median - a.median) / abs(a.median) \
        if a.median else 0.0
    if worse > bound:
        return "REGRESSED"
    if worse < -bound:
        return "improved"
    if max(a.spread, b.spread) > bound:
        b_wins = (max(b.values) < min(a.values)) if better == "lower" \
            else (min(b.values) > max(a.values))
        return "improved" if b_wins else "unresolved"
    return "unchanged"


def compare(a_groups: Dict[Key, List[dict]],
            b_groups: Dict[Key, List[dict]]) -> List[dict]:
    """One row per (metric, workload) of the runs both sides made."""
    rows: List[dict] = []
    for key in sorted(set(a_groups) & set(b_groups)):
        workload, traced = key
        section = "per_layer" if traced else "end_to_end"
        a_docs, b_docs = a_groups[key], b_groups[key]
        names: List[str] = []
        for doc in a_docs + b_docs:
            names += [n for n in doc[section] if n not in names]
        for name in names:
            a = Side(a_docs, section, name)
            b = Side(b_docs, section, name)
            if traced:
                _n, unit, better, _g, exact = W.PER_LAYER_BY_NAME[name]
                bound = None
            else:
                unit, better, bound, _w, exact = W.END_TO_END[name]
            rows.append({
                "workload": workload, "traced": traced, "metric": name,
                "unit": unit, "a": a, "b": b,
                "verdict": verdict(a, b, better=better, bound=bound,
                                   exact=exact),
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = []
    for row in rows:
        a, b = row["a"], row["b"]
        delta = ""
        if a.median and b.median is not None:
            delta = f"{(b.median - a.median) / abs(a.median):+.1%}"
        lines.append(
            f"{row['verdict']:<10} {row['workload']:<24} "
            f"{row['metric']:<30} {row['unit']:<6} "
            f"A {a.cell():<44} B {b.cell():<44} {delta}")
    tally: Dict[str, int] = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    lines.append(", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    if not rows:
        print("compare: no ledger records in common", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] in BAD for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
