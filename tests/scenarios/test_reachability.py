"""Reachability: every registered mechanism is reached by some figure.

The catalogue is what the paper's claims reach.  This test builds every
registered figure's matrix at ``smoke`` and ``quick``, plus the
cross-policy arena over :data:`~repro.scenarios.arena.DEFAULT_POLICIES`,
and asks of each name a task can name — a load-balancer policy, a switch
mode, a failure kind, a probe, a workload kind, a model runner, a
parameter of one of those kinds, a field of
:class:`~repro.sim.network.NetworkConfig`, of
:class:`~repro.sim.params.TopologyParams` or of
:class:`~repro.core.reps.RepsConfig` — whether some task reaches it.

A name is reached when some task uses it, or, for a config field, when
some task's scenario or topology holds the field away from its default
(``topo``, ``lb`` and ``seed`` are set by every task).  A kind's
parameter (``failure:fail_cables.at_us``, ``workload:trace.load``,
``model:footprint.buffer_size``) is reached when some task gives it — a
failure spec and a model task keep only the parameters given — or, for
a workload kind, whose spec is filled with its defaults, when some task
holds it away from its default.  A name nothing reaches either goes or
is listed in :data:`KEEP` with a one-line reason; a KEEP entry that is
reached, or names nothing registered, is stale.
"""

from __future__ import annotations

from dataclasses import fields
from inspect import Parameter, signature
from typing import Callable, Dict, Iterable, Mapping, Set

import pytest

from repro.core.reps import RepsConfig
from repro.harness.model_tasks import MODEL_RUNNERS
from repro.harness.sweep import (
    FAILURE_KINDS,
    MIXED_BACKGROUND_LB,
    PROBES,
    WORKLOAD_KINDS,
    FailureSpec,
    SweepTask,
    WorkloadSpec,
    make_model_task,
    make_task,
)
from repro.lb import available
from repro.lb.base import _REGISTRY, policy
from repro.sim.network import NetworkConfig
from repro.sim.params import TopologyParams
from repro.sim.switch import SWITCH_MODES

from helpers import catalogue

SCALES = ("smoke", "quick")

#: registered names no figure reaches, each with why it stays
KEEP: Dict[str, str] = {
    "lb:reps_source": "the perf ledger pins the policy registry; goes "
                      "with the ledger's own change",
    "lb:wcmp": "the perf ledger pins the policy registry; goes with the "
               "ledger's own change",
    "switch_mode:source": "reps_source's switch mode; goes with it",
    "switch_mode:wcmp": "wcmp's switch mode; goes with it",
    "failure:fail_cables": "the CLI's --fail-uplink schedules it",
    "failure:fail_cables.indices": "the CLI's --fail-uplink sets it",
    "failure:fail_cables.at_us": "the CLI's --fail-at sets it",
    "failure:fail_cables.duration_us": "the CLI's --fail-for sets it",
    "workload:synthetic.fan_in": "the CLI's --fan-in sets it",
    "workload:synthetic.workload_seed": "run and compare draw the "
                                        "permutation from --seed",
    "NetworkConfig.rto_us": "the policy-conformance suite runs at "
                            "1 000 us",
    "NetworkConfig.routing_update_delay_us": "the ledger's "
                                             "fabric_permutation_fail and "
                                             "a golden trace set it",
    "RepsConfig.evs_size": "lb/base.py:_make_reps overrides it with the "
                           "flow's EVS, but Table 1's footprint reads it",
    "RepsConfig.freezing_timeout_ps": "Algorithm 2's freezing constant",
    "TopologyParams.link_gbps": "the perf ledger's fabrics run at 200 G",
    "TopologyParams.trim_enabled": "the CLI's --trimming sets it",
}

#: the NetworkConfig fields every task sets
_ALWAYS_SET = ("topo", "lb", "seed")


def kinds() -> Dict[str, Callable]:
    """``failure:`` / ``workload:`` / ``model:`` kind name -> its
    function.  The ``model`` workload kind is left out: its parameters
    name a model runner and hand it its own."""
    return {**{f"failure:{kind}": fn for kind, fn in FAILURE_KINDS.items()},
            **{f"workload:{kind}": fn
               for kind, (fn, _label) in WORKLOAD_KINDS.items()
               if kind != "model"},
            **{f"model:{name}": fn for name, fn in MODEL_RUNNERS.items()}}


def kind_parameters(fn: Callable) -> Mapping[str, Parameter]:
    """What a task may set of a kind: all but its first parameter (the
    network, or a model's seed)."""
    return dict(list(signature(fn).parameters.items())[1:])


def registered() -> Set[str]:
    """Every name a task can reach."""
    return ({f"lb:{name}" for name in available()}
            | {f"switch_mode:{mode}" for mode in SWITCH_MODES}
            | {f"failure:{kind}" for kind in FAILURE_KINDS}
            | {f"probe:{name}" for name in PROBES}
            | {f"workload:{kind}" for kind in WORKLOAD_KINDS}
            | {f"model:{name}" for name in MODEL_RUNNERS}
            | {f"{kind}.{param}" for kind, fn in kinds().items()
               for param in kind_parameters(fn)}
            | {f"NetworkConfig.{f.name}" for f in fields(NetworkConfig)}
            | {f"TopologyParams.{f.name}" for f in fields(TopologyParams)}
            | {f"RepsConfig.{f.name}" for f in fields(RepsConfig)})


def _failures(spec: FailureSpec) -> Iterable[FailureSpec]:
    if spec.kind == "compose":
        for sub in dict(spec.params)["specs"]:
            yield from _failures(sub)
    else:
        yield spec


def reached(tasks: Iterable[SweepTask]) -> Set[str]:
    """The names ``tasks`` use, or hold away from their defaults."""
    net_defaults = NetworkConfig()
    topo_defaults = TopologyParams()
    reps_defaults = RepsConfig()
    params = {kind: kind_parameters(fn) for kind, fn in kinds().items()}
    out: Set[str] = set()
    for task in tasks:
        kind = f"workload:{task.workload.kind}"
        out.add(kind)
        if task.workload.kind == "model":
            workload = dict(task.workload.params)
            model = f"model:{workload['pattern']}"
            out.add(model)
            out.update(f"{model}.{name}" for name, _ in workload["params"])
            continue
        out.update(f"{kind}.{name}" for name, value in task.workload.params
                   if value != params[kind][name].default)
        out.update(f"NetworkConfig.{name}" for name in _ALWAYS_SET)
        out.add(f"lb:{task.lb}")
        if task.workload.kind == "mixed":
            out.add(f"lb:{MIXED_BACKGROUND_LB}")
        # the mode ``Network`` builds the fabric in
        out.add(f"switch_mode:{policy(task.lb).switch_mode or 'ecmp'}")
        out.update(f"TopologyParams.{name}" for name, value in task.topo
                   if value != getattr(topo_defaults, name))
        out.update(f"probe:{name}" for name in task.probes)
        if task.failure is not None:
            for spec in _failures(task.failure):
                out.add(f"failure:{spec.kind}")
                out.update(f"failure:{spec.kind}.{name}"
                           for name, _ in spec.params)
        for key, value in task.scenario:
            if key == "reps":
                out.add("NetworkConfig.reps")
                out.update(f"RepsConfig.{name}" for name, held in value
                           if held != getattr(reps_defaults, name))
            elif (hasattr(net_defaults, key)
                  and value != getattr(net_defaults, key)):
                out.add(f"NetworkConfig.{key}")
    return out


def unreached(tasks: Iterable[SweepTask]) -> Set[str]:
    """Registered names ``tasks`` leave unreached and KEEP omits."""
    return registered() - reached(tasks) - set(KEEP)


def stale(tasks: Iterable[SweepTask]) -> Set[str]:
    """KEEP entries ``tasks`` reach, or that name nothing registered."""
    hit = reached(tasks)
    return {name for name in KEEP if name in hit or name not in registered()}


@pytest.fixture(scope="module")
def catalogue_tasks():
    """Every task of every registered figure and of the default arena,
    at each scale in :data:`SCALES`."""
    return catalogue(SCALES)


class TestCatalogue:
    def test_every_registered_name_is_reached_or_kept(self,
                                                      catalogue_tasks):
        missing = unreached(catalogue_tasks)
        assert not missing, (
            f"no figure reaches {sorted(missing)}: give it a figure, "
            "a KEEP reason, or delete it")

    def test_no_keep_entry_is_stale(self, catalogue_tasks):
        found = stale(catalogue_tasks)
        assert not found, f"stale KEEP entries: {sorted(found)}"

    def test_a_policy_no_figure_uses_is_unreached(self, catalogue_tasks,
                                                  monkeypatch):
        monkeypatch.setitem(_REGISTRY, "ops_twin", policy("ops"))
        assert unreached(catalogue_tasks) == {"lb:ops_twin"}

    def test_a_keep_entry_for_a_reached_name_is_stale(self, catalogue_tasks,
                                                      monkeypatch):
        monkeypatch.setitem(KEEP, "lb:reps", "a figure reaches it")
        monkeypatch.setitem(KEEP, "lb:no_such_policy", "names nothing")
        assert stale(catalogue_tasks) == {"lb:reps", "lb:no_such_policy"}

    def test_each_keep_reason_is_one_line(self):
        assert all(reason and "\n" not in reason
                   for reason in KEEP.values())


class TestReached:
    """The walker itself: what counts as reaching a name."""

    TOPO = TopologyParams(n_hosts=8, hosts_per_t0=4)

    def task(self, lb="reps", workload=None, **kw) -> SweepTask:
        workload = workload or WorkloadSpec.make(
            "synthetic", pattern="permutation", msg_bytes=1 << 17)
        return make_task(lb, self.TOPO, workload, seed=1, **kw)

    def test_a_composed_failure_reaches_each_part(self):
        spec = FailureSpec.compose(
            FailureSpec.make("fail_fraction", fraction=0.1, at_us=10.0),
            FailureSpec.make("ber", ber=0.01))
        hit = reached([self.task(failure=spec)])
        assert {"failure:fail_fraction", "failure:ber"} <= hit
        assert "failure:compose" not in hit

    def test_a_mixed_workload_reaches_its_background_policy(self):
        workload = WorkloadSpec.make("mixed")
        assert {"lb:reps", "lb:ecmp", "workload:mixed"} \
            <= reached([self.task(workload=workload)])

    def test_a_failure_parameter_given_is_reached(self):
        spec = FailureSpec.compose(
            FailureSpec.make("fail_fraction", fraction=0.1, at_us=10.0),
            FailureSpec.make("ber", ber=0.01))
        hit = reached([self.task(failure=spec)])
        assert {"failure:fail_fraction.fraction",
                "failure:fail_fraction.at_us", "failure:ber.ber"} <= hit
        # left to its default, a parameter is not given
        assert "failure:ber.what" not in hit

    def test_a_workload_parameter_at_its_default_is_not_reached(self):
        held = WorkloadSpec.make("synthetic", pattern="permutation",
                                 msg_bytes=1 << 17, fan_in=8)
        hit = reached([self.task(workload=held)])
        assert "workload:synthetic.msg_bytes" in hit
        assert "workload:synthetic.fan_in" not in hit
        assert "workload:synthetic.pattern" not in hit
        moved = WorkloadSpec.make("synthetic", pattern="incast", fan_in=4)
        assert {"workload:synthetic.pattern", "workload:synthetic.fan_in"} \
            <= reached([self.task(workload=moved)])

    def test_a_model_parameter_given_is_reached(self):
        hit = reached([make_model_task("footprint", seed=1, buffer_size=8)])
        assert hit == {"workload:model", "model:footprint",
                       "model:footprint.buffer_size"}

    def test_the_policy_picks_the_switch_mode(self):
        assert "switch_mode:adaptive" in reached(
            [self.task(lb="adaptive_roce")])
        assert "switch_mode:ecmp" in reached([self.task()])

    def test_a_field_at_its_default_is_not_reached(self):
        hit = reached([self.task(evs_size=NetworkConfig.evs_size,
                                 reps=RepsConfig())])
        assert "NetworkConfig.evs_size" not in hit
        assert "NetworkConfig.reps" in hit
        assert not {name for name in hit if name.startswith("RepsConfig.")}
        assert {"NetworkConfig.topo", "NetworkConfig.lb",
                "NetworkConfig.seed"} <= hit

    def test_a_field_off_its_default_is_reached(self):
        hit = reached([self.task(evs_size=256,
                                 reps=RepsConfig(buffer_size=4))])
        assert {"NetworkConfig.evs_size", "RepsConfig.buffer_size"} <= hit

    def test_a_topology_field_is_reached_off_its_default_only(self):
        hit = reached([self.task()])
        assert {"TopologyParams.n_hosts",
                "TopologyParams.hosts_per_t0"} <= hit
        assert "TopologyParams.tiers" not in hit
        assert "TopologyParams.tiers" in reached([make_task(
            "reps", TopologyParams(n_hosts=16, hosts_per_t0=4, tiers=3,
                                   oversubscription=2),
            WorkloadSpec.make("synthetic"), seed=1)])

    def test_a_model_task_reaches_its_runner_only(self):
        hit = reached([make_model_task("footprint", seed=1)])
        assert hit == {"workload:model", "model:footprint"}
