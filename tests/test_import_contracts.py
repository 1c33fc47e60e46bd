"""The cold-start contract: a command loads the layer it runs.

Module *sets*, never wall clock: each row runs ``repro.cli.main`` in a
fresh interpreter and asserts on the ``sys.modules`` it leaves behind
(``docs/ARCHITECTURE.md``, "Layers and the import graph").
"""

from __future__ import annotations

import importlib
import os

import pytest

from helpers import fresh_interpreter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "campaign.json")

#: run main(argv) with stdout muted, then report the exit code and
#: every loaded module (the probe itself imports only os and sys)
PROBE = """
import os, sys
from repro.cli import main
out, sys.stdout = sys.stdout, open(os.devnull, "w")
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
out.write("\\n".join([str(code), *sorted(sys.modules)]))
"""

#: nothing of the package beyond the parser, and none of what the
#: whole-package import used to drag in
PARSER_ONLY = ("multiprocessing", "socket", "statistics")
#: describe + present: no simulator, policies, models, store or pool
NO_EXECUTION = (
    "repro.sim.network", "repro.sim.transport", "repro.lb",
    "repro.models", "repro.harness.runner", "repro.harness.store",
    "repro.harness.backends", "multiprocessing")
#: a campaign served from its store: persist loads, execute does not
NO_SIMULATION = ("repro.sim.network", "repro.harness.runner",
                 "repro.models", "multiprocessing")


#: the describe layer (``docs/ARCHITECTURE.md``): what importing the
#: figure catalogue may load of the package besides ``repro.scenarios``
DESCRIBE = {
    "repro", "repro.core", "repro.core.footprint", "repro.core.reps",
    "repro.harness", "repro.harness.scale", "repro.harness.stats",
    "repro.harness.sweep", "repro.sim", "repro.sim.params"}


def loaded_by(*argv, cwd=None):
    """(exit code, set of module names) after ``repro <argv>``."""
    code, *modules = fresh_interpreter(PROBE, *argv, cwd=cwd).split("\n")
    return int(code), set(modules)


def under(modules, prefixes):
    return sorted(m for m in modules for p in prefixes
                  if m == p or m.startswith(p + "."))


@pytest.mark.parametrize("argv", [("-h",), ("figures", "-h"),
                                  ("store", "-h")], ids=" ".join)
def test_help_loads_only_the_parser(argv):
    code, modules = loaded_by(*argv)
    assert code == 0
    package = [m for m in modules if m.split(".")[0] == "repro"
               and m != "repro" and not m.startswith("repro.cli")]
    assert package == []
    assert under(modules, PARSER_ONLY) == []


def test_the_figure_catalogue_loads_only_the_describe_layer():
    """``scenarios/`` imports describe modules and the stdlib alone: no
    ``report/`` (a figure table's CDF comes from
    ``harness/stats.py:cdf_points``) and no simulator past
    ``sim/params.py``."""
    modules = fresh_interpreter(
        "import sys, repro.scenarios; print(*sorted(sys.modules))").split()
    package = {m for m in modules if m.split(".")[0] == "repro"
               and not m.startswith("repro.scenarios")}
    assert package == DESCRIBE


@pytest.mark.parametrize("argv", [
    ("figures", "list"),
    ("figures", "trend", RECORD, RECORD),
    ("footprint",),
], ids=lambda argv: " ".join(argv[:2]))
def test_describe_and_present_commands_skip_execution(argv):
    code, modules = loaded_by(*argv, cwd=ROOT)
    assert code == 0
    assert under(modules, NO_EXECUTION) == []


def test_cached_campaign_skips_the_simulator(tmp_path):
    """``figures run --all`` on two workers, every task in the store:
    the simulator, the models and ``multiprocessing`` stay unloaded.
    (Two cheap figures — one simulated, one analytic — stand in for the
    catalogue so the cold fill costs seconds.)"""
    argv = ("figures", "run", "--all", "fig02", "table1", "--scale",
            "smoke", "--workers", "2", "--results-dir", "store",
            "--report", "R.md", "--json", "c.json")
    code, cold = loaded_by(*argv, cwd=tmp_path)
    assert code == 0
    assert {"repro.harness.runner", "multiprocessing"} <= cold
    before = (tmp_path / "c.json").read_text()
    code, warm = loaded_by(*argv, cwd=tmp_path)
    assert code == 0
    assert '"executed": 0' in (tmp_path / "c.json").read_text() and \
        '"executed": 0' not in before
    assert "repro.harness.store" in warm
    assert under(warm, NO_SIMULATION) == []


@pytest.mark.parametrize("package", [
    "repro", "repro.sim", "repro.core", "repro.harness",
    "repro.workloads", "repro.report"])
def test_lazy_packages_keep_every_public_name(package):
    """The positive side: ``__all__`` is a promise ``getattr``,
    ``from pkg import name`` and ``dir(pkg)`` all still keep."""
    pkg = importlib.import_module(package)
    assert sorted(set(pkg.__all__)) == sorted(pkg.__all__)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        scope: dict = {}
        exec(f"from {package} import {name}", scope)
        assert scope[name] is value
        assert name in dir(pkg)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        pkg.nope
