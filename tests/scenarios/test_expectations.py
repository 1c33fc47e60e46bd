"""Paper claims as records: the Expectation, the judge, and ``-O``."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys

import pytest

import repro
from repro.harness.campaign import run_campaign
from repro.scenarios import Expectation, run_figure

from helpers import stub_spec

SCENARIOS = os.path.join(os.path.dirname(repro.__file__), "scenarios")


class TestExpectation:
    @pytest.mark.parametrize("op, measured, held, margin", [
        ("<", 2.0, False, 0.0),
        ("<", 1.0, True, 0.5),
        ("<=", 2.0, True, 0.0),
        ("<=", 3.0, False, -0.5),
        (">", 2.0, False, 0.0),
        (">", 3.0, True, 0.5),
        (">=", 2.0, True, 0.0),
        (">=", 1.0, False, -0.5),
        ("==", 2.0, True, 0.0),
        ("==", 3.0, False, -0.5),
        ("==", 1.0, False, -0.5),
    ])
    def test_held_and_margin_against_bound_two(self, op, measured, held,
                                               margin):
        record = Expectation("claim", measured, op, 2.0)
        assert record.held is held
        assert record.margin == pytest.approx(margin)

    def test_margin_is_relative_to_the_bound_magnitude(self):
        assert Expectation("c", -3.0, "<", -2.0).margin == \
            pytest.approx(0.5)
        assert Expectation("c", -1.0, ">", -2.0).margin == \
            pytest.approx(0.5)

    def test_margin_is_absolute_when_the_bound_is_zero(self):
        assert Expectation("c", 3, "==", 0).margin == -3
        assert Expectation("c", -0.5, "<", 0).margin == 0.5
        assert Expectation("c", 2.0, ">", 0).margin == 2.0

    @pytest.mark.parametrize("measured", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=="])
    def test_a_non_finite_measurement_is_unmet(self, measured, op):
        assert not Expectation("c", measured, op, 1.0).held

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown op '!='"):
            Expectation("c", 1.0, "!=", 2.0)

    def test_describe_states_claim_measured_op_bound(self):
        assert Expectation("REPS < OPS", 1.5, "<", 2.0).describe() == \
            "REPS < OPS (1.5 < 2)"


def judged(check):
    return run_campaign([stub_spec("stub_j", check=check)])["stub_j"]


class TestJudge:
    def test_every_unmet_claim_is_named_in_order(self):
        def check(result):
            result.expect("first miss", 2.0, "<", 1.0)
            result.expect("holds", 1.0, "<", 2.0)
            result.expect("second miss", 5.0, ">=", 6.0)
        outcome = judged(check)
        assert outcome.status == "fail"
        assert outcome.error == \
            "first miss (2 < 1); second miss (5 >= 6)"
        assert [e.held for e in outcome.expectations] == \
            [False, True, False]

    def test_all_claims_held_is_pass(self):
        def check(result):
            result.expect("holds", 1.0, "<=", 1.0)
        outcome = judged(check)
        assert (outcome.status, outcome.error) == ("pass", "")
        assert len(outcome.expectations) == 1

    def test_no_claim_recorded_is_error(self):
        outcome = judged(lambda result: None)
        assert outcome.status == "error"
        assert "recorded no paper claim" in outcome.error

    def test_unknown_op_is_error(self):
        def check(result):
            result.expect("typo", 1.0, "=<", 2.0)
        outcome = judged(check)
        assert outcome.status == "error"
        assert "unknown op '=<'" in outcome.error

    def test_a_stray_assertion_error_is_error_not_fail(self):
        def check(result):
            result.expect("holds", 1.0, "<", 2.0)
            raise AssertionError("a bare assert slipped in")
        outcome = judged(check)
        assert outcome.status == "error"
        assert "a bare assert slipped in" in outcome.error
        assert outcome.table is not None  # the numbers still report

    def test_check_reruns_from_an_empty_record(self):
        def check(result):
            result.expect("holds", 1.0, "<", 2.0)
        result = run_figure(stub_spec("stub_j", check=check))
        assert len(result.check()) == len(result.check()) == 1


def test_verdict_survives_python_dash_o():
    """``-O`` strips ``assert``; a recorded claim is still judged."""
    code = (
        "import sys\n"
        "from repro.harness.campaign import run_campaign\n"
        "from helpers import stub_spec\n"
        "def check(result):\n"
        "    result.expect('unmet', 1.0, '<', 0.0)\n"
        "outcome = run_campaign([stub_spec('stub_o', check=check)])"
        "['stub_o']\n"
        "print(sys.flags.optimize, outcome.status, outcome.error)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    tests = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 fail unmet (1 < 0)"


def test_scenarios_hold_no_assert_statement():
    found = []
    for name in sorted(os.listdir(SCENARIOS)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SCENARIOS, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
