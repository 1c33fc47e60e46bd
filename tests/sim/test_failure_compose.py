"""``FailureSpec.compose`` is order-independent (seed-driven property).

Fig. 8 combines failure modes by composing declarative specs; the
composition contract is that the *set* of scheduled failure events —
not the order the sub-specs were listed in — determines the run.  Each
sub-spec schedules its injections at its own instants, so as long as
two specs do not target the same instant, ``compose(a, b)`` and
``compose(b, a)`` must produce byte-identical result payloads.

The property is exercised with randomly drawn schedule pairs: the
kinds, targets, times and durations all come from a seeded RNG, with
the two specs drawn on disjoint time grids (a-times end in .3, b-times
in .7) so the property holds by construction, not by luck.  A
degradation holds from time zero, so each grid degrades its own
cables instead.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.harness.sweep import (
    FailureSpec,
    WorkloadSpec,
    execute_task,
    make_task,
    task_key,
)

TOPO = {"n_hosts": 8, "hosts_per_t0": 4}
#: big enough that the permutation is still in flight (tens of us)
#: when the injected failures land — the property must be exercised
#: on live traffic, not on an already-drained fabric
WORKLOAD = WorkloadSpec.make("synthetic", pattern="permutation",
                             msg_bytes=256 * 1024)


def _grid_time(rng: random.Random, ending: float) -> float:
    """A microsecond instant on a 1us grid, offset by ``ending`` —
    two specs drawn with different endings can never collide."""
    return rng.randrange(1, 50) + ending


#: the uplink cables a spec drawn on each grid may degrade
_DEGRADE_CABLES = {0.1: (0, 1), 0.3: (2, 3), 0.7: (4, 5)}


def _random_spec(rng: random.Random, ending: float) -> FailureSpec:
    kind = rng.choice(["cable_schedule", "tor_uplinks", "degrade"])
    if kind == "cable_schedule":
        events = tuple(
            (idx, _grid_time(rng, ending), float(rng.randrange(3, 20)))
            for idx in rng.sample(range(4), rng.randint(1, 2)))
        return FailureSpec.make("fail_cable_schedule", events=events)
    if kind == "tor_uplinks":
        return FailureSpec.make(
            "fail_tor_uplinks", tor=rng.randrange(2), keep=1,
            at_us=_grid_time(rng, ending),
            stagger_us=float(rng.randrange(1, 4) * 10))
    return FailureSpec.make(
        "degrade_cables",
        indices=tuple(rng.sample(_DEGRADE_CABLES[ending],
                                 rng.randint(1, 2))),
        gbps=float(rng.choice([100, 200])))


def _payload(failure: FailureSpec, seed: int) -> str:
    task = make_task("reps", TOPO, WORKLOAD, seed=seed,
                     failure=failure, max_us=20_000.0)
    payload = execute_task(task)
    # the content key hashes the spec *listing order* (distinct cache
    # entries by design) and the label names the failure kind; the
    # property is about the simulation results, not the bookkeeping
    payload.pop("key", None)
    if isinstance(payload.get("task"), dict):
        payload["task"].pop("label", None)
    return json.dumps(payload, sort_keys=True)


class TestComposeOrdering:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_either_order_same_payload(self, seed):
        rng = random.Random(seed)
        a = _random_spec(rng, ending=0.3)
        b = _random_spec(rng, ending=0.7)
        ab = _payload(FailureSpec.compose(a, b), seed=seed)
        bb = _payload(FailureSpec.compose(b, a), seed=seed)
        assert ab == bb, \
            f"compose({a.kind}, {b.kind}) payload depends on order"

    def test_three_way_permutations(self):
        rng = random.Random(99)
        a = _random_spec(rng, ending=0.1)
        b = _random_spec(rng, ending=0.3)
        c = _random_spec(rng, ending=0.7)
        reference = _payload(FailureSpec.compose(a, b, c), seed=99)
        for perm in ((b, c, a), (c, a, b), (c, b, a)):
            assert _payload(FailureSpec.compose(*perm),
                            seed=99) == reference

    def test_singleton_compose_matches_bare_spec(self):
        rng = random.Random(7)
        spec = _random_spec(rng, ending=0.3)
        assert _payload(FailureSpec.compose(spec), seed=7) == \
            _payload(spec, seed=7)


class TestComposeStructure:
    def test_compose_needs_a_spec(self):
        with pytest.raises(ValueError):
            FailureSpec.compose()

    def test_compose_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FailureSpec.compose("fail_cables")  # type: ignore[arg-type]

    def test_orderings_are_distinct_cache_keys(self):
        # payload equality is a semantic property; the content-keyed
        # store still treats the two orderings as distinct tasks
        rng = random.Random(11)
        a = _random_spec(rng, ending=0.3)
        b = _random_spec(rng, ending=0.7)
        t_ab = make_task("reps", TOPO, WORKLOAD, seed=11,
                         failure=FailureSpec.compose(a, b))
        t_ba = make_task("reps", TOPO, WORKLOAD, seed=11,
                         failure=FailureSpec.compose(b, a))
        assert task_key(t_ab) != task_key(t_ba)
