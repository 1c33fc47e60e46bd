"""The observation-weighted default expectation (ISSUE 10 bugfix).

``longest_first`` gives tasks whose label has no recorded history a
*default* expected wall time.  It used to be the unweighted mean of
the per-label means, so one once-seen outlier label moved every
unseen task's dispatch position; now it is weighted by observation
count (total recorded wall over total observations), so rare labels
influence the default in proportion to how often they were actually
seen.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.backends import (
    default_expectation,
    longest_first,
    wall_time_history,
)


class _FakeStore:
    def __init__(self, entries):
        self._entries = entries

    def manifest(self):
        return self._entries


class _FakeTask:
    def __init__(self, label):
        self._label = label

    def label(self):
        return self._label


def _store(**label_walls):
    """A fake store whose manifest records the given wall times,
    e.g. ``_store(heavy=[1.0, 1.1], tiny=[0.01])``."""
    entries = {}
    for label, walls in label_walls.items():
        for i, wall in enumerate(walls):
            entries[f"{label}-{i}"] = {"label": label, "wall_s": wall}
    return _FakeStore(entries)


def _order(store, *labels):
    pending = [(f"k{i}", _FakeTask(label))
               for i, label in enumerate(labels)]
    return [task.label() for _key, task in longest_first(pending, store)]


class TestDefaultExpectation:
    def test_weighted_by_observation_count(self):
        history = {"heavy": (10.0, 2), "light": (1.0, 1)}
        # (10*2 + 1*1) / 3, NOT mean(10, 1) = 5.5
        assert default_expectation(history) == pytest.approx(7.0)

    def test_empty_history(self):
        assert default_expectation({}) == 0.0

    def test_history_carries_counts(self):
        store = _store(heavy=[9.0, 11.0], light=[1.0])
        assert wall_time_history(store) == {
            "heavy": (10.0, 2), "light": (1.0, 1)}

    def test_outlier_label_no_longer_dominates(self):
        """The motivating defect: 40 observations near 1.0s plus ONE
        0.01s observation.  Unweighted, the default collapsed to
        ~0.5s and unseen tasks dispatched after a 0.8s label;
        weighted, unseen tasks stay near the workload's typical
        cost."""
        walls = {"typical": [1.0] * 40, "tiny": [0.01],
                 "mid": [0.8] * 3}
        store = _store(**walls)
        # weighted default ~ (40*1.0 + 0.01 + 3*0.8) / 44 ~ 0.96
        assert _order(store, "mid", "unseen") == ["unseen", "mid"]
        # sanity: the old unweighted default mean(1.0, 0.01, 0.8) ~ 0.6
        # would have reordered these
        unweighted = (1.0 + 0.01 + 0.8) / 3
        assert unweighted < 0.8 < default_expectation(
            wall_time_history(store))


@st.composite
def _history_case(draw):
    """A dominant label, a mid-cost seen label, and a rare tiny label
    observation that must not move unseen tasks across mid."""
    dominant = draw(st.lists(
        st.floats(0.9, 1.1, allow_nan=False), min_size=20,
        max_size=60))
    mid = draw(st.lists(
        st.floats(0.3, 0.6, allow_nan=False), min_size=1, max_size=4))
    tiny = draw(st.floats(0.0, 0.02, allow_nan=False))
    return dominant, mid, tiny


class TestRareLabelProperty:
    @settings(max_examples=60, deadline=None)
    @given(_history_case())
    def test_rare_tiny_label_does_not_reorder_unseen(self, case):
        """Property (ISSUE 10): adding one observation of a rare tiny
        label must not reorder unseen tasks relative to seen ones."""
        dominant, mid, tiny = case
        before = _store(dominant=dominant, mid=mid)
        after = _store(dominant=dominant, mid=mid, tiny=[tiny])
        labels = ("mid", "unseen", "dominant")
        assert _order(before, *labels) == _order(after, *labels)

    @settings(max_examples=60, deadline=None)
    @given(_history_case())
    def test_default_moves_at_most_one_observation_worth(self, case):
        """Quantified: one new observation shifts the default by at
        most (old_default - new_value) / (n + 1)."""
        dominant, mid, tiny = case
        hist_before = wall_time_history(_store(dominant=dominant,
                                               mid=mid))
        hist_after = wall_time_history(_store(dominant=dominant,
                                              mid=mid, tiny=[tiny]))
        n = len(dominant) + len(mid)
        d_before = default_expectation(hist_before)
        d_after = default_expectation(hist_after)
        bound = abs(d_before - tiny) / (n + 1)
        assert abs(d_before - d_after) <= bound + 1e-9


class TestModelLabelsCarryTheirParams:
    def test_history_tells_fig14_cells_apart(self):
        """fig14's 14 tasks span 0.3 ms .. seconds.  Under one shared
        ``model:imbalance`` label a recorded run averaged them into one
        expectation and the plan order came back unchanged; with the
        params in the label the 2^16 x 32-flow cell dispatches first."""
        from repro.harness.sweep import task_key
        from repro.scenarios import get_figure

        plan = get_figure("fig14").build()
        pending = [(task_key(task), task) for task in plan.values()]
        labels = {task.label() for _key, task in pending}
        assert len(labels) == len(pending)
        assert all(label.startswith("model:imbalance ") for label in labels)
        # one recorded run: each cell cost what its ball count says
        entries = {}
        for key, task in pending:
            p = dict(dict(task.workload.params)["params"])
            balls = (1 << p["evs_exponent"]) * p["n_flows"] * p["repeats"]
            entries[key] = {"label": task.label(), "wall_s": 1e-7 * balls}
        recorded = _FakeStore(entries)
        first = longest_first(pending, recorded)[0][1]
        assert first is plan[(16, 32)]
        assert "evs_exponent=16" in first.label()
        assert "n_flows=32" in first.label()


class _ManifestStore:
    def __init__(self, entries):
        self._entries = entries

    def manifest(self):
        return self._entries


class _BrokenStore:
    def manifest(self):
        raise RuntimeError("no manifest for you")


def _pending(*labels):
    return [(f"k{i}", _FakeTask(label))
            for i, label in enumerate(labels)]


class TestLongestFirst:
    """The wall-time-driven schedule is a pure, stable, fail-soft
    reordering of the pending tasks."""

    STORE = _ManifestStore({
        "a1": {"label": "slow", "wall_s": 9.0},
        "a2": {"label": "slow", "wall_s": 11.0},
        "b1": {"label": "fast", "wall_s": 1.0},
        "c1": {"label": "untimed"},
    })

    def test_mean_wall_per_label(self):
        # (mean wall, observations); untimed entries are not history
        assert wall_time_history(self.STORE) == \
            {"slow": (10.0, 2), "fast": (1.0, 1)}

    def test_longest_expected_first_and_stable(self):
        pending = _pending("fast", "slow", "fast", "slow")
        ordered = longest_first(pending, self.STORE)
        assert [t.label() for _, t in ordered] == \
            ["slow", "slow", "fast", "fast"]
        # stable: ties keep submission order; pure: same multiset
        assert [k for k, _ in ordered] == ["k1", "k3", "k0", "k2"]
        assert sorted(ordered) == sorted(pending)

    def test_unseen_label_gets_overall_mean(self):
        ordered = longest_first(
            _pending("fast", "novel", "slow"), self.STORE)
        # observation-weighted default (9+11+1)/3 = 7.0: novel slots
        # between slow and fast
        assert [t.label() for _, t in ordered] == \
            ["slow", "novel", "fast"]

    def test_no_history_and_failures_keep_order(self):
        pending = _pending("b", "a")
        assert longest_first(pending, None) == pending
        assert longest_first(pending, _ManifestStore({})) == pending
        assert longest_first(pending, _BrokenStore()) == pending
        assert wall_time_history(_BrokenStore()) == {}


class TestHistoryIsFailSoft:
    """Manifest entries that carry no usable wall time are not
    history; they never raise and never skew a label's mean."""

    @pytest.mark.parametrize("wall", [True, "9.0", None, [1.0]],
                             ids=["bool", "str", "none", "list"])
    def test_a_non_numeric_wall_is_not_history(self, wall):
        store = _ManifestStore({
            "a": {"label": "slow", "wall_s": 4.0},
            "b": {"label": "slow", "wall_s": wall}})
        assert wall_time_history(store) == {"slow": (4.0, 1)}

    def test_non_dict_entries_are_skipped(self):
        store = _ManifestStore({
            "a": {"label": "slow", "wall_s": 4.0},
            "b": "not an entry", "c": None, "d": [1, 2]})
        assert wall_time_history(store) == {"slow": (4.0, 1)}

    def test_integer_walls_count(self):
        store = _ManifestStore({"a": {"label": "x", "wall_s": 3},
                                "b": {"label": "x", "wall_s": 1}})
        assert wall_time_history(store) == {"x": (2.0, 2)}


class TestPendingShapes:
    """``longest_first`` takes whatever sequence a pool hands it."""

    STORE = TestLongestFirst.STORE

    def test_a_single_task_comes_back_alone(self):
        pending = _pending("fast")
        assert longest_first(pending, self.STORE) == pending

    def test_an_iterator_of_pending_is_accepted(self):
        ordered = longest_first(iter(_pending("fast", "slow")),
                                self.STORE)
        assert [t.label() for _, t in ordered] == ["slow", "fast"]

    def test_the_callers_list_is_left_as_it_was(self):
        pending = _pending("fast", "slow")
        before = list(pending)
        ordered = longest_first(pending, self.STORE)
        assert pending == before
        assert ordered is not pending
