"""Tracing from outside: spans, class wrappers, cProfile binning.

Nothing under ``src/`` knows it is being measured.  The ledger wraps
the public calls of a layer (``Patches`` swaps an attribute on a class
or module and puts the original back), records spans and call counts
in memory (``Tracer``), and — for the simulator's hot path, where a
wrapper per call would itself be the cost — bins one repetition's
``cProfile`` self time by source module (``bin_profile``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Patches:
    """Attribute swaps that can be undone exactly.

    ``set`` remembers whether the attribute lived in the owner's own
    ``__dict__`` (a method inherited from a base class does not), so
    ``remove`` restores the owner to what it was: the original object
    back in place, or the attribute deleted again.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name,
                           vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap(self, owner, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(original)``."""
        self.set(owner, name, make(getattr(owner, name)))

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """In-memory spans and counters, written out when the run ends.

    A span is ``(id, name, start, end, parent, fig)``: ``parent`` is the
    span that was open when this one started, ``fig`` the identifier
    every span of one figure shares.  ``add`` accumulates calls too
    frequent to keep a span each (store gets, task keys).
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, fig: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "start": time.perf_counter(), "end": None,
               "parent": parent["id"] if parent else None,
               "fig": fig if fig is not None
               else (parent["fig"] if parent else None)}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def spanning(self, name: str) -> Callable[[Callable], Callable]:
        """A ``Patches.wrap`` factory: every call becomes a span."""
        def make(fn):
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        return make

    def adding(self, name: str) -> Callable[[Callable], Callable]:
        """A ``Patches.wrap`` factory: calls accumulate under ``name``."""
        def make(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(name, time.perf_counter() - t0)
            return timed
        return make

    def total(self, name: str) -> float:
        """Seconds spent in ``name``: its spans plus its accumulator."""
        return self.totals.get(name, 0.0) + sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None)


def write_trace(out_dir: str, workload: str, doc: dict) -> str:
    """Persist a traced run's raw material as
    ``out/trace-<workload>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# cProfile self time, binned by source module
# ----------------------------------------------------------------------
#: path fragment -> layer, first match wins.  Layer names are the
#: simulator's module names; ``core/reps.py`` counts as ``lb``.
_LAYER_OF_PATH = (
    ("repro/sim/engine.py", "engine"),
    ("repro/sim/port.py", "port"),
    ("repro/sim/switch.py", "switch"),
    ("repro/sim/transport.py", "transport"),
    ("repro/sim/cc/", "cc"),
    ("repro/sim/packet.py", "packet"),
    ("repro/sim/network.py", "network"),
    ("repro/workloads/", "workloads"),
    ("repro/core/reps.py", "lb"),
    ("repro/lb/", "lb"),
)


def layer_of(filename: str) -> str:
    """The ledger layer a source file belongs to (``other`` if none)."""
    path = filename.replace(os.sep, "/")
    for fragment, layer in _LAYER_OF_PATH:
        if fragment in path:
            return layer
    return "other"


def bin_profile(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict.

    A Python function's self time goes to the layer of its file.  A C
    built-in has no file (``'~'``); its time is charged to the layers
    of its *callers*, split by the time each caller accounts for — so
    ``heapq.heappush`` lands in ``engine`` and ``deque.popleft`` in
    ``port`` instead of piling up in ``other``.
    """
    bins: Dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename != "~" or not callers:
            layer = layer_of(filename)
            bins[layer] = bins.get(layer, 0.0) + tt
            continue
        # per-caller tuples carry the callee's self time on that edge
        for (caller_file, _l, _n), edge in callers.items():
            layer = layer_of(caller_file)
            bins[layer] = bins.get(layer, 0.0) + edge[2]
    return bins
