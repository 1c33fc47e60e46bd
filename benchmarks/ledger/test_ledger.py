"""Tier-1 tests of the perf ledger (collected from the repo root).

Every workload function runs at a tiny size passed as an argument and
must return every metric declared for it; the tables, the profile
binning, the wrapper install/remove round trip and ``compare.py``'s
verdicts are pinned beside them.
"""

from __future__ import annotations

import cProfile
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import run as ledger  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: per-workload size overrides that finish in about a second
TINY = {
    "fabric_lowload": {"duration_us": 150.0, "min_reps": 2,
                       "micro_scale": 0.01},
    "fabric_permutation_fail": {"flow_bytes": 96 * 1024,
                                "fail_at_us": (2.0, 4.0, 6.0),
                                "min_reps": 2, "micro_scale": 0.01},
    "campaign_smoke": {"only": ("table1", "fig18"), "setup_probes": 1,
                       "min_reruns": 1, "max_reruns": 1},
    "store_bulk": {"records": 1200, "chunk": 100, "cold_opens": 2,
                   "random_gets": 20},
}


# ----------------------------------------------------------------------
# the tables
# ----------------------------------------------------------------------
def test_benchmark_json_echoes_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == W.benchmark_json()


def test_metric_names_are_well_formed_and_unique():
    doc = W.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    names += list(W.END_TO_END)
    for name in names:
        assert NAME.match(name), name
    declared = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(declared) == len(set(declared))
    assert len(doc["workloads"]) == 4
    assert len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert doc["end_to_end"][-1]["name"] == "setup_s"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_policy_list_matches_the_registry():
    from repro.lb.base import available
    assert list(W.LB_POLICIES) == available()


def test_store_records_are_seeded():
    a, _ = W.store_records(50, 7, 3)
    b, _ = W.store_records(50, 7, 3)
    c, _ = W.store_records(50, 8, 3)
    assert a == b
    assert a != c
    assert "series" in a[0][1] and "series" not in a[1][1]


# ----------------------------------------------------------------------
# every workload, tiny, both modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_returns_every_declared_metric(name, tmp_path):
    out = str(tmp_path)
    record = ledger.run_workload(name, 3, 0.0, False, size=TINY[name],
                                 out_dir=out)
    assert record["missing"] == [], record["notes"]
    assert record["failed"] == 0, record["notes"]
    assert set(record["end_to_end"]) == set(W.end_to_end_names(name))
    line = ledger.result_line(record)
    assert line["correct"] and line["attempted"] >= 1
    assert list(line["metrics"]) == [
        m[0] for m in W.CONTRACT_END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())

    traced = ledger.run_workload(name, 3, 0.0, True, size=TINY[name],
                                 out_dir=out)
    assert traced["missing"] == [], traced["notes"]
    assert traced["failed"] == 0, traced["notes"]
    assert set(traced["per_layer"]) == set(W.per_layer_names(name))
    assert "end_to_end" not in traced       # never in the traced record
    assert os.path.isfile(os.path.join(out, f"trace-{name}.json"))
    line = ledger.result_line(traced)
    assert list(line["metrics"]) == [m[0] for m in W.PER_LAYER]
    # only tracer output survives the run: no temp stores, no campaigns
    assert os.listdir(out) == [f"trace-{name}.json"]


def test_fabric_self_times_cover_the_profiled_wall(tmp_path):
    record = ledger.run_workload(
        "fabric_lowload", 5, 0.0, True, size=TINY["fabric_lowload"],
        out_dir=str(tmp_path))
    layers = record["per_layer"]
    self_s = sum(doc["value"] for name, doc in layers.items()
                 if name.endswith(".self_s"))
    assert self_s == pytest.approx(layers["trace.wall_s"]["value"],
                                   rel=0.05)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_builtin_time_is_charged_to_the_calling_module():
    engine_py = os.path.join("x", "repro", "sim", "engine.py")
    port_py = os.path.join("x", "repro", "sim", "port.py")
    stats = {
        (engine_py, 10, "at"): (5, 5, 1.0, 3.0, {}),
        (port_py, 20, "enqueue"): (5, 5, 0.5, 1.0, {}),
        ("~", 0, "<built-in method _heapq.heappush>"): (
            10, 10, 2.0, 2.0, {(engine_py, 10, "at"): (10, 10, 2.0, 2.0)}),
        ("~", 0, "<method 'append' of 'collections.deque' objects>"): (
            4, 4, 0.5, 0.5, {(port_py, 20, "enqueue"): (4, 4, 0.5, 0.5)}),
        ("/usr/lib/python3/random.py", 1, "randrange"): (
            1, 1, 0.25, 0.25, {}),
    }
    assert tracing.bin_profile(stats) == {
        "engine": 3.0, "port": 1.0, "other": 0.25}


def test_real_heapq_time_lands_in_engine():
    from repro.sim import Engine

    eng = Engine()
    left = [20_000]

    def hop():
        left[0] -= 1
        if left[0] > 0:
            eng.at(eng.now + 1_000, hop)

    eng.at(0, hop)
    profile = cProfile.Profile()
    profile.enable()
    eng.run()
    profile.disable()
    profile.create_stats()
    heap_s = sum(tt for (f, _l, fn), (_c, _n, tt, _ct, _callers)
                 in profile.stats.items() if f == "~" and "heap" in fn)
    py_engine_s = sum(tt for (f, _l, _fn), (_c, _n, tt, _ct, _callers)
                      in profile.stats.items()
                      if tracing.layer_of(f) == "engine")
    bins = tracing.bin_profile(profile.stats)
    assert heap_s > 0
    assert bins["engine"] == pytest.approx(py_engine_s + heap_s)
    assert sum(bins.values()) == pytest.approx(
        sum(row[2] for row in profile.stats.values()))


def test_wrappers_leave_the_classes_as_they_were():
    import wl_campaign
    import wl_fabric
    from repro.harness.store import ColumnarStore
    from repro.scenarios import FigureResult
    from repro.sim import EgressPort, FlowSender, Switch

    owners = (EgressPort, Switch, FlowSender, ColumnarStore, FigureResult,
              wl_campaign.campaign_mod, wl_campaign.registry_mod,
              wl_campaign.sweep_mod, *wl_campaign.BACKENDS.values())
    before = [dict(vars(owner)) for owner in owners]

    patches = wl_fabric.install_wrappers(wl_fabric._Counts())
    assert vars(EgressPort)["enqueue"] is not before[0]["enqueue"]
    patches.remove()
    patches = wl_campaign.install_spans(tracing.Tracer())
    assert "get" in vars(ColumnarStore)     # inherited before the patch
    patches.remove()

    assert [dict(vars(owner)) for owner in owners] == before
    assert "get" not in vars(ColumnarStore)


def test_spans_nest_and_share_a_figure_id():
    tracer = tracing.Tracer()
    with tracer.span("figure", fig="fig07"):
        with tracer.span("run_sweep"):
            tracer.add("task_key", 0.5)
    figure, sweep = tracer.spans
    assert sweep["parent"] == figure["id"] and sweep["fig"] == "fig07"
    assert figure["parent"] is None
    assert tracer.total("task_key") == 0.5
    assert tracer.counts == {"task_key": 1}


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _record(work_per_s, q=0.0, seed=1, failed=0):
    """A minimal untraced fabric record."""
    def doc(value, name, spread=0.0):
        unit, better, bound, _w, exact = W.END_TO_END[name]
        return {"value": value, "q1": value * (1 - spread),
                "q3": value * (1 + spread), "n": 5, "unit": unit,
                "better": better, "bound": bound, "exact": exact}
    return {
        "ledger": 1, "workload": "fabric_lowload", "seed": seed,
        "traced": False, "attempted": 10, "failed": failed,
        "end_to_end": {
            "work_per_s": doc(work_per_s, "work_per_s", q),
            "pkts_per_s": doc(work_per_s, "pkts_per_s", q),
            "sim_max_fct_us": doc(900.0, "sim_max_fct_us"),
            "failed_share": doc(failed / 10, "failed_share"),
        }}


def _verdicts(a_records, b_records, tmp_path):
    paths = []
    for tag, records in (("a", a_records), ("b", b_records)):
        path = tmp_path / f"{tag}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records)
                        + '{"correct": true}\n')
        paths.append(str(path))
    rows = compare.compare(compare.load(paths[0]), compare.load(paths[1]))
    return {row["metric"]: row["verdict"] for row in rows}, \
        compare.main(paths)


def test_compare_passes_an_identical_pair(tmp_path):
    verdicts, code = _verdicts([_record(30_000.0)], [_record(30_000.0)],
                               tmp_path)
    assert verdicts == {"work_per_s": "unchanged",
                        "pkts_per_s": "unchanged",
                        "sim_max_fct_us": "same", "failed_share": "same"}
    assert code == 0


def test_compare_flags_a_twenty_percent_slowdown(tmp_path):
    verdicts, code = _verdicts([_record(30_000.0)], [_record(24_000.0)],
                               tmp_path)
    # 20 % is past pkts_per_s's bound but inside the looser one the
    # driver's contract puts on work_per_s
    assert verdicts["pkts_per_s"] == "REGRESSED"
    assert verdicts["work_per_s"] == "unchanged"
    assert code == 1


def test_compare_calls_a_noisy_pair_unresolved_not_unchanged(tmp_path):
    verdicts, code = _verdicts([_record(30_000.0, q=0.10)],
                               [_record(29_000.0)], tmp_path)
    assert verdicts["pkts_per_s"] == "unresolved"
    assert verdicts["work_per_s"] == "unchanged"
    assert code == 0


def test_compare_requires_counts_to_repeat_and_failures_to_stay_zero(
        tmp_path):
    changed = _record(30_000.0, failed=1)
    changed["end_to_end"]["sim_max_fct_us"]["value"] = 901.0
    verdicts, code = _verdicts([_record(30_000.0)], [changed], tmp_path)
    assert verdicts["sim_max_fct_us"] == "DIFFERS"
    assert verdicts["failed_share"] == "DIFFERS"
    assert code == 1
    # another seed is another input: nothing to equate
    verdicts, _ = _verdicts([_record(30_000.0, seed=1)],
                            [_record(30_000.0, seed=2)], tmp_path)
    assert verdicts["sim_max_fct_us"] == "info"


def test_compare_uses_the_spread_across_runs(tmp_path):
    quiet = [_record(v) for v in (30_000.0, 30_100.0, 29_900.0, 30_050.0)]
    fast = [_record(v) for v in (36_000.0, 36_100.0, 35_900.0, 36_050.0)]
    verdicts, code = _verdicts(quiet, fast, tmp_path)
    assert verdicts["pkts_per_s"] == "improved"
    assert code == 0
