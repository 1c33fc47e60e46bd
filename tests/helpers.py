"""Shared test helpers importable from any test module.

Kept out of ``conftest.py`` so call sites can use a plain ``from helpers
import small_network`` — relative imports of conftest break under
pytest's rootdir-based collection (no ``__init__.py`` packages here).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.sim.engine import Engine
from repro.sim.link import Cable
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import Packet
from repro.sim.port import EgressPort
from repro.sim.switch import Switch
from repro.sim.topology import TopologyParams
from repro.sim.units import NS


def fresh_interpreter(code: str, *argv: str, cwd=None) -> str:
    """stdout of ``python -c code argv...`` in a new process: nothing
    of ``repro`` is loaded there yet, so import-graph assertions see
    what ``code`` itself pulled in."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def small_network(lb: str = "reps", *, n_hosts: int = 8,
                  hosts_per_t0: int = 4, seed: int = 1,
                  trim_enabled: bool = False, **cfg_kwargs) -> Network:
    """An 8-host, 2-ToR network — big enough for multipath, fast to run."""
    topo = TopologyParams(n_hosts=n_hosts, hosts_per_t0=hosts_per_t0,
                          trim_enabled=trim_enabled)
    return Network(NetworkConfig(topo=topo, lb=lb, seed=seed, **cfg_kwargs))


def catalogue(scales=("smoke", "quick")) -> list:
    """Every task of every registered figure and of the cross-policy
    arena over ``DEFAULT_POLICIES``, at each of ``scales``."""
    from repro.scenarios import DEFAULT_POLICIES, REGISTRY, arena_specs

    tasks = []
    with pytest.MonkeyPatch.context() as mp:
        for scale in scales:
            mp.setenv("REPRO_BENCH_SCALE", scale)
            specs = list(REGISTRY.values()) + arena_specs(DEFAULT_POLICIES)
            for spec in specs:
                tasks.extend(spec.build().values())
    return tasks


def make_switch(engine: Engine, n_up: int = 8, mode: str = "ecmp",
                seed: int = 7):
    """A standalone switch with ``n_up`` cabled uplinks for routing tests."""
    sw = Switch("t0", 0, salt=12345, rng=random.Random(seed), mode=mode)
    ports = []
    for i in range(n_up):
        p = EgressPort(engine, f"up{i}", rate_gbps=400,
                       latency_ps=500 * NS, capacity_bytes=1 << 20,
                       kmin_bytes=1 << 18, kmax_bytes=1 << 19,
                       rng=random.Random(seed + i))
        cable = Cable(f"c{i}")
        rev = EgressPort(engine, f"rev{i}", rate_gbps=400,
                         latency_ps=500 * NS, capacity_bytes=1 << 20,
                         kmin_bytes=1, kmax_bytes=2,
                         rng=random.Random(seed))
        cable.attach(p, rev)
        ports.append(p)
    sw.up_ports = ports
    return sw, ports


def pkt(src: int = 0, dst: int = 100, ev: int = 0) -> Packet:
    return Packet(src=src, dst=dst, flow_id=0, seq=0, size=4096, ev=ev)


# ----------------------------------------------------------------------
# campaign/report stubs: tiny figures over the footprint model
# ----------------------------------------------------------------------
def footprint_task(buffer_size: int, seed: int = 1):
    from repro.harness.sweep import make_model_task
    return make_model_task("footprint", seed=seed,
                           buffer_size=buffer_size)


def stub_table(result):
    """A stub figure's table: one row per cell."""
    rows = [(str(key), round(result.value(key), 2))
            for key in result.keys()]
    return (["scenario", result.spec.metric], rows, [])


def stub_check(result):
    """A stub figure's one claim: every cell costs some bits."""
    result.expect("every cell costs bits",
                  min(result.values().values()), ">", 0)


def stub_spec(fig_id: str, buffers=(1, 8), check=stub_check, build=None):
    """A tiny, fast FigureSpec over the footprint model."""
    from repro.scenarios import FigureSpec

    def default_build():
        return {b: footprint_task(b) for b in buffers}
    return FigureSpec(
        fig_id=fig_id, figure="Stub", title=f"stub {fig_id}",
        build=build or default_build, metric="total_bits",
        table=stub_table, check=check, tags=("stub",))


def stub_registry():
    """Three healthy figures; the middle one shares a task with the
    first (cross-figure dedup), the last has a single cell."""
    def check_ok(result):
        keys = sorted(result.keys())
        result.expect("more buffer elements cost more bits",
                      result.value(keys[-1]), ">", result.value(keys[0]))
    return [
        stub_spec("stub_a", buffers=(1, 8), check=check_ok),
        stub_spec("stub_b", buffers=(8, 16), check=check_ok),
        stub_spec("stub_c", buffers=(2,)),
    ]
