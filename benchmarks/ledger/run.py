#!/usr/bin/env python3
"""The perf ledger's one command.

    python benchmarks/ledger/run.py --workload <name> --seed <int>
                                    [--seconds <s>] [--trace [0|1]]
                                    [--out records.jsonl]

Runs one of the four frozen workloads (``workloads.py`` says which and
why), checks its outputs, and prints two JSON objects, one per line:
first the ledger record — every metric by name with its unit, medians
with quartiles and sample counts, the failure count and what failed —
and last the driver's result line (``correct``, ``attempted``,
``failed``, ``metrics``).  Without ``--trace`` the metrics are the
end-to-end ones, measured with tracing off; ``--trace`` is a separate
run that produces the per-layer numbers and its own overhead, and the
end-to-end numbers it happens to see are labelled ``traced_end_to_end``
and never mixed into an untraced record.

Exit code 0 means every declared metric was produced; a metric that
could not be produced prints as ``null`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads as W  # noqa: E402  (needs HERE on the path)


#: workload group -> the module whose ``run(name, seed, seconds, trace,
#: import_s, out_dir, size)`` measures it
_MODULES = {"fabric": "wl_fabric", "campaign": "wl_campaign",
            "store": "wl_store"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 size: Optional[dict] = None, out_dir: str = OUT) -> dict:
    """Run workload ``name`` and return its ledger record.

    ``size`` overrides entries of the workload's ``params`` (tests run
    every workload at a tiny size this way; the CLI has no such flag).
    """
    if name not in W.WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"one of {sorted(W.WORKLOADS)}")
    # the simulator is imported here, inside the measured process, so
    # its import cost lands in setup_s
    t0 = time.perf_counter()
    module = importlib.import_module(
        _MODULES[W.WORKLOADS[name]["group"]])
    import_s = time.perf_counter() - t0
    result = module.run(name, seed, seconds, trace, import_s, out_dir,
                        size)
    return build_record(name, seed, seconds, trace, result)


def _label(measured: Dict[str, dict], names: List[str], labels
           ) -> Tuple[Dict[str, Optional[dict]], List[str]]:
    """``names`` from ``measured`` with ``labels(name)`` merged in;
    a metric without a finite number becomes None and is listed."""
    section: Dict[str, Optional[dict]] = {}
    missing: List[str] = []
    for name in names:
        doc = measured.get(name)
        value = doc.get("value") if doc else None
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            section[name] = None
            missing.append(name)
        else:
            section[name] = {**doc, **labels(name)}
    return section, missing


def build_record(name: str, seed: int, seconds: float, trace: bool,
                 result: dict) -> dict:
    """Label ``result``'s numbers with unit and direction, fill the
    process-level metrics, and null out what is missing."""
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "ledger": 1, "workload": name, "seed": seed,
        "seconds": seconds, "traced": trace,
        "work_unit": W.WORKLOADS[name]["unit"],
        "attempted": attempted, "failed": failed,
        "notes": result["notes"], "info": result.get("info", {}),
    }
    if trace:
        def labels(metric: str) -> dict:
            _n, unit, better, _owner, exact = W.PER_LAYER_BY_NAME[metric]
            return {"unit": unit, "better": better, "exact": exact}
        record["per_layer"], record["missing"] = _label(
            result["per_layer"], W.per_layer_names(name), labels)
        record["traced_end_to_end"] = result.get("traced_end_to_end", {})
    else:
        def labels(metric: str) -> dict:
            unit, better, bound, _wl, exact = W.END_TO_END[metric]
            return {"unit": unit, "better": better, "bound": bound,
                    "exact": exact}
        measured = dict(result["end_to_end"])
        measured.setdefault("peak_rss_mb", {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        measured["failed_share"] = {"value": failed / attempted}
        record["end_to_end"], record["missing"] = _label(
            measured, W.end_to_end_names(name), labels)
    return record


def result_line(record: dict) -> dict:
    """The driver's view of a record: the contract's end-to-end
    metrics untraced, every per-layer metric traced (0 where this
    workload gives the layer no work)."""
    metrics: Dict[str, dict] = {}
    if record["traced"]:
        owned = record["per_layer"]
        for name, unit, _better, _owner, _exact in W.PER_LAYER:
            doc = owned.get(name)
            value = 0 if name not in owned else \
                (doc["value"] if doc else None)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit, _better, _bound in W.CONTRACT_END_TO_END:
            doc = record["end_to_end"].get(name)
            metrics[name] = {"value": doc["value"] if doc else None,
                             "unit": unit}
    return {"correct": record["failed"] == 0 and not record["missing"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="REPS reproduction perf ledger: one workload, one "
                    "record")
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=W.RUN_SECONDS,
                        help="how long the repeated sections measure")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="per-layer run (tracing on)")
    parser.add_argument("--out", default=None,
                        help="append the ledger record to this JSON-"
                             "lines file (what compare.py reads)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no simulator at {SRC}: nothing to measure",
              file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    line = json.dumps(record)
    print(line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    for note in record["notes"]:
        print(f"ledger: {note}", file=sys.stderr)
    for name in record["missing"]:
        print(f"ledger: metric {name} could not be produced",
              file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 1 if record["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
