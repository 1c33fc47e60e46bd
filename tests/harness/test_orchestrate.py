"""The elastic campaign orchestrator.

Unit level: balanced LPT planning, the shard manifests it writes, the
worker's validation, scoped environment and heartbeat protocol, and
the SSH runner's command construction.  Orchestrator level: fake
runners drive the retry / fatal-abort / retry-exhaustion /
heartbeat-timeout / interrupted-loop paths without spawning a single
subprocess.  The real-subprocess chaos drill (SIGKILL a live worker
mid-shard, campaign still matches single-host output) lives in
``tests/test_cli.py::TestOrchestrate``.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.backends import worker
from repro.harness.backends.worker import (
    EXIT_FATAL,
    Heartbeat,
    read_heartbeat,
    run_shard_worker,
    scoped_env,
)
from repro.harness.campaign import select_figures
from repro.harness.orchestrate import (
    LocalGroupRunner,
    Orchestrator,
    SSHRunner,
    WorkerHandle,
    WorkerRunner,
    balanced_partition,
    plan_campaign_shards,
    write_shard_plan,
)
from repro.harness.store import ColumnarStore

SELECTION = ("table1", "fig24")  # 7 cheap model tasks at smoke scale


def equal(keys):
    """``keys`` with no wall-time history: every weight the same."""
    return [(k, 0.0) for k in keys]


class TestBalancedPartition:
    def test_equal_weights_reduce_to_round_robin(self):
        """No wall-time history plans round-robin over the sorted
        keys."""
        keys = [f"k{i:02d}" for i in range(11)]
        assert balanced_partition(equal(reversed(keys)), 3) == \
            [keys[i::3] for i in range(3)]

    @settings(max_examples=60, deadline=None)
    @given(keys=st.sets(st.text("0123456789abcdef", min_size=1,
                                max_size=6), max_size=40),
           n_shards=st.integers(1, 9), weight=st.floats(0, 1e3))
    def test_equal_weights_are_round_robin_over_sorted_keys(
            self, keys, n_shards, weight):
        ordered = sorted(keys)
        weighted = [(k, weight) for k in keys]
        assert balanced_partition(weighted, n_shards) == \
            [ordered[i::n_shards] for i in range(n_shards)]

    def test_equal_weights_deterministic_and_order_independent(self):
        keys = [f"{i:04x}" for i in range(13)]
        assert balanced_partition(equal(keys), 3) == \
            balanced_partition(equal(reversed(keys)), 3)

    def test_equal_weights_disjoint_cover_balanced(self):
        keys = [f"{i:04x}" for i in range(13)]
        parts = balanced_partition(equal(keys), 4)
        flat = [k for part in parts for k in part]
        assert sorted(flat) == sorted(keys)
        assert len(flat) == len(set(flat))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_keys(self):
        parts = balanced_partition(equal(["a", "b"]), 5)
        assert sum(len(p) for p in parts) == 2
        assert len(parts) == 5

    def test_lpt_balances_skewed_weights(self):
        weighted = [("a", 10.0), ("b", 9.0), ("c", 1.0), ("d", 1.0),
                    ("e", 1.0)]
        bins = balanced_partition(weighted, 2)
        assert bins == [["a", "d"], ["b", "c", "e"]]
        loads = [sum(dict(weighted)[k] for k in b) for b in bins]
        assert max(loads) - min(loads) <= 1.0

    def test_deterministic_and_input_order_free(self):
        weighted = [("x", 3.0), ("a", 3.0), ("m", 1.0), ("b", 2.0)]
        first = balanced_partition(weighted, 2)
        assert balanced_partition(list(reversed(weighted)), 2) == first

    def test_partition_is_a_partition(self):
        weighted = [(f"k{i}", float(i % 4)) for i in range(23)]
        bins = balanced_partition(weighted, 5)
        flat = sorted(k for b in bins for k in b)
        assert flat == sorted(k for k, _w in weighted)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match=">= 1"):
            balanced_partition([("a", 1.0)], 0)


class TestPlanCampaignShards:
    def plan(self, n_shards=2, only=SELECTION):
        return plan_campaign_shards(select_figures(only=list(only)),
                                    n_shards)

    def test_manifests_record_grid_identity(self, smoke_env):
        from repro.harness.sweep import SCHEMA_VERSION, simulator_version
        manifests, expected_s = self.plan()
        assert expected_s == 0.0  # no history store: nothing weighed
        assert [m["shard"] for m in manifests] == [0, 1]
        for m in manifests:
            assert m["kind"] == worker.SHARD_KIND
            assert m["schema"] == worker.SHARD_SCHEMA
            assert m["n_shards"] == 2
            assert m["sim"] == simulator_version()
            assert m["artifact_schema"] == SCHEMA_VERSION
            assert m["scale"] == "smoke"
            assert sorted(m["figures"]) == sorted(SELECTION)
        keys = manifests[0]["keys"] + manifests[1]["keys"]
        assert len(keys) == len(set(keys)) == 7

    def test_written_plan_is_deterministic_and_loadable(self, tmp_path,
                                                        smoke_env):
        first = write_shard_plan(str(tmp_path / "a"), self.plan()[0])
        again = write_shard_plan(str(tmp_path / "b"), self.plan()[0])
        assert [os.path.basename(p) for p in first] == \
            ["shard-0.json", "shard-1.json"]
        for a, b in zip(first, again):
            with open(a) as fa, open(b) as fb:
                assert fa.read() == fb.read()
            assert worker.load_shard_manifest(a)["keys"]

    def test_empty_bins_are_dropped(self, smoke_env):
        manifests, _ = self.plan(n_shards=8, only=("table1",))
        assert len(manifests) == 5  # table1 has 5 tasks
        assert all(len(m["keys"]) == 1 for m in manifests)
        assert {m["n_shards"] for m in manifests} == {8}


class TestScopedEnv:
    def test_sets_and_restores(self):
        os.environ.pop("REPRO_TEST_SCOPED", None)
        with scoped_env(REPRO_TEST_SCOPED="x"):
            assert os.environ["REPRO_TEST_SCOPED"] == "x"
        assert "REPRO_TEST_SCOPED" not in os.environ

    def test_restores_previous_value_even_on_error(self):
        os.environ["REPRO_TEST_SCOPED"] = "before"
        try:
            with pytest.raises(RuntimeError):
                with scoped_env(REPRO_TEST_SCOPED="during"):
                    assert os.environ["REPRO_TEST_SCOPED"] == "during"
                    raise RuntimeError("boom")
            assert os.environ["REPRO_TEST_SCOPED"] == "before"
        finally:
            os.environ.pop("REPRO_TEST_SCOPED", None)

    def test_none_removes_for_the_scope(self):
        os.environ["REPRO_TEST_SCOPED"] = "here"
        try:
            with scoped_env(REPRO_TEST_SCOPED=None):
                assert "REPRO_TEST_SCOPED" not in os.environ
            assert os.environ["REPRO_TEST_SCOPED"] == "here"
        finally:
            os.environ.pop("REPRO_TEST_SCOPED", None)


class TestHeartbeat:
    def test_write_bump_read(self, tmp_path):
        path = str(tmp_path / "hb.json")
        beat = Heartbeat(path, shard=1, n_shards=4, total=5,
                         interval_s=60.0).start()
        try:
            doc = read_heartbeat(path)
            assert doc["shard"] == 1 and doc["n_shards"] == 4
            assert doc["done"] == 0 and doc["total"] == 5
            assert doc["pid"] == os.getpid()
            beat.bump(3)
            assert read_heartbeat(path)["done"] == 3
        finally:
            beat.close()
        assert read_heartbeat(path)["done"] == 3

    def test_missing_and_torn_reads_are_none(self, tmp_path):
        assert read_heartbeat(str(tmp_path / "ghost.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"pid": 1, "done"')
        assert read_heartbeat(str(torn)) is None

    def test_none_path_is_a_noop(self):
        beat = Heartbeat(None, 0, 1, 1).start()
        beat.bump()
        beat.close()


def planned(tmp_path, n_shards=2, only=SELECTION):
    """Shard manifests for ``only`` at smoke scale, written to disk;
    the planner's environment is left as it was."""
    with scoped_env(REPRO_BENCH_SCALE="smoke"):
        manifests, _ = plan_campaign_shards(
            select_figures(only=list(only)), n_shards)
    return write_shard_plan(str(tmp_path / "plan"), manifests)


class TestWorkerValidation:
    """What a worker refuses (exit 3, nothing runs) and what it runs."""

    def test_unreadable_manifest_is_fatal(self, tmp_path):
        out = io.StringIO()
        rc = run_shard_worker(str(tmp_path / "nope.json"),
                              str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert "cannot read" in out.getvalue()

    def test_non_manifest_json_is_fatal(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{\"keys\": []}")
        out = io.StringIO()
        rc = run_shard_worker(str(path), str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert "not a repro shard manifest" in out.getvalue()

    def test_simulator_drift_is_fatal(self, tmp_path):
        manifest = {"schema": 1, "kind": "repro-shard", "shard": 0,
                    "n_shards": 1, "sim": "0" * 16,
                    "artifact_schema": 1, "scale": "smoke",
                    "figures": ["table1"], "keys": []}
        path = tmp_path / "shard-0.json"
        path.write_text(json.dumps(manifest))
        out = io.StringIO()
        rc = run_shard_worker(str(path), str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert "re-plan" in out.getvalue()

    def test_drift_refusal_runs_nothing(self, tmp_path):
        """The simulator-drift refusal fires before any task executes:
        no store directory, no artifacts, no scale left behind."""
        path = planned(tmp_path)[0]
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["sim"] = "f" * 16
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        out = io.StringIO()
        rc = run_shard_worker(path, str(tmp_path / "never"), out=out)
        assert rc == EXIT_FATAL
        assert "does not match" in out.getvalue()
        assert not (tmp_path / "never").exists()
        assert "REPRO_BENCH_SCALE" not in os.environ

    def test_grid_drift_is_fatal(self, tmp_path):
        path = planned(tmp_path)[0]
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["keys"].append("0" * 24)
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        out = io.StringIO()
        assert run_shard_worker(path, str(tmp_path / "s"),
                                out=out) == EXIT_FATAL
        assert "missing from the re-expanded grid" in out.getvalue()

    @pytest.mark.parametrize("policies", [["reps", "ecmp", "prime"],
                                          ["ops", "mptcp"]])
    def test_arena_figures_resolve_for_any_pivot(self, policies):
        """``--policies`` arena ids are derived, not registered: the
        worker re-derives them whatever pivot the selection used, and
        finds every planned key."""
        from repro.harness.sweep import task_key
        from repro.scenarios import arena_specs
        with scoped_env(REPRO_BENCH_SCALE="smoke"):
            bases = select_figures(only=["fig02", "fig07"])
            specs = bases + arena_specs(policies, bases=bases,
                                        pivot=policies[0])
            (manifest,), _ = plan_campaign_shards(specs, 1)
            assert "arena_fig02" in manifest["figures"]
            by_key = worker.expand_specs(
                worker.figure_specs(manifest["figures"]))[1]
        tasks = worker.tasks_for_manifest(manifest, by_key)
        assert [task_key(t) for t in tasks] == manifest["keys"]

    def test_crash_is_retryable_not_fatal(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")
        monkeypatch.setattr(worker, "run_sweep", boom)
        out = io.StringIO()
        rc = run_shard_worker(planned(tmp_path)[0], str(tmp_path / "s"),
                              out=out)
        assert rc == 1
        assert "shard crashed: RuntimeError: disk on fire" in \
            out.getvalue()

    def test_scale_is_scoped_to_the_run(self, tmp_path):
        """The worker exports the plan's scale only for the duration of
        the run: nothing leaks into an in-process caller, and a value
        that existed before is restored, not clobbered."""
        paths = planned(tmp_path)
        assert "REPRO_BENCH_SCALE" not in os.environ
        out = io.StringIO()
        assert run_shard_worker(paths[1], str(tmp_path / "s1"),
                                out=out) == 0
        assert "shard-1/2" in out.getvalue()
        # the run itself saw the identity: the store records it
        manifest = ColumnarStore(str(tmp_path / "s1")).manifest()
        assert manifest
        assert {e["origin"] for e in manifest.values()} == {"shard-1/2"}
        assert "REPRO_BENCH_SCALE" not in os.environ
        with scoped_env(REPRO_BENCH_SCALE="full"):
            assert run_shard_worker(paths[0], str(tmp_path / "s0"),
                                    out=io.StringIO()) == 0
            assert os.environ["REPRO_BENCH_SCALE"] == "full"

    def test_empty_shard_still_materializes_its_store(self, tmp_path):
        """A shard with no tasks leaves an empty store directory, so
        merging every planned shard store never trips on a missing
        one."""
        path = tmp_path / "shard-7.json"
        manifest = json.loads(open(planned(tmp_path)[0]).read())
        manifest.update(shard=7, n_shards=8, keys=[])
        path.write_text(json.dumps(manifest))
        out = io.StringIO()
        assert run_shard_worker(str(path), str(tmp_path / "s7"),
                                out=out) == 0
        assert "0 task(s)" in out.getvalue()
        assert (tmp_path / "s7").is_dir()
        assert len(ColumnarStore(str(tmp_path / "s7"))) == 0


class TestSSHRunner:
    def shard(self, tmp_path):
        from repro.harness.orchestrate import ShardRun
        return ShardRun(index=3, manifest_path="/shared/plan/s3.json",
                        store_dir="/shared/stores/s3",
                        heartbeat_path="/shared/hb/s3.json",
                        total=2, expected_s=1.0, origin="shard-3/4")

    def test_command_wraps_the_worker_invocation(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        runner = SSHRunner(["hostA", "hostB"], python="python3",
                           pythonpath="/shared/src")
        argv = runner.command_for(self.shard(tmp_path), slot=1)
        assert argv[0] == "ssh"
        assert "BatchMode=yes" in argv
        assert "hostB" in argv  # slot 1 -> second host
        remote = argv[-1]
        assert "PYTHONPATH=/shared/src" in remote
        assert "REPRO_BENCH_SCALE=smoke" in remote
        assert "-m repro.harness.backends.worker" in remote
        assert "/shared/plan/s3.json" in remote
        assert "--heartbeat /shared/hb/s3.json" in remote

    def test_slots_follow_hosts_and_repeats_count(self):
        assert SSHRunner(["h1", "h1", "h2"]).slots() == 3
        with pytest.raises(ValueError, match="at least one host"):
            SSHRunner([])

    def test_local_runner_builds_worker_module_command(self, tmp_path):
        argv = LocalGroupRunner(python="pyX").command_for(
            self.shard(tmp_path), workers=2)
        assert argv == ["pyX", "-m", "repro.harness.backends.worker",
                        "/shared/plan/s3.json",
                        "--store", "/shared/stores/s3",
                        "--heartbeat", "/shared/hb/s3.json",
                        "--workers", "2"]


# ----------------------------------------------------------------------
# orchestrator event loop, driven by fake runners
# ----------------------------------------------------------------------
class _Handle(WorkerHandle):
    def __init__(self, rc, name="fake:0"):
        self.rc = rc
        self.name = name
        self.killed = False

    def poll(self):
        if isinstance(self.rc, type):   # an exception class: raise it
            raise self.rc("interrupted while polling")
        return self.rc

    def kill(self):
        self.killed = True


class _FakeRunner(WorkerRunner):
    """Consumes a scripted behavior per launch: ``ok`` runs the shard
    in-process (real worker, real store), ``crash``/``fatal`` return
    the exit code without running, ``hang`` never exits, ``interrupt``
    raises ``KeyboardInterrupt`` from ``poll``."""

    name = "fake"

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.launches = []
        self.handles = []

    def launch(self, shard, slot, *, workers, log_path):
        behavior = self.behaviors.pop(0) if self.behaviors else "ok"
        self.launches.append((shard.index, behavior))
        with open(log_path, "w") as fh:
            fh.write(f"{behavior} shard {shard.index}\n")
        if behavior == "ok":
            rc = run_shard_worker(
                shard.manifest_path, shard.store_dir,
                heartbeat_path=shard.heartbeat_path,
                out=io.StringIO())
            handle = _Handle(rc, f"fake:{slot}")
        elif behavior == "crash":
            handle = _Handle(1, f"fake:{slot}")
        elif behavior == "fatal":
            handle = _Handle(EXIT_FATAL, f"fake:{slot}")
        elif behavior == "interrupt":
            handle = _Handle(KeyboardInterrupt, f"fake:{slot}")
        else:
            handle = _Handle(None, f"fake:{slot}")
        self.handles.append(handle)
        return handle


@pytest.fixture()
def smoke_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")


def _orchestrator(tmp_path, runner, **kwargs):
    kwargs.setdefault("fan_out", 1)
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("poll_interval_s", 0.01)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    kwargs.setdefault("report_path", str(tmp_path / "R.md"))
    kwargs.setdefault("json_path", str(tmp_path / "c.json"))
    kwargs.setdefault("html_path", str(tmp_path / "status.html"))
    return Orchestrator(select_figures(only=list(SELECTION)),
                        results_dir=str(tmp_path / "results"),
                        runner=runner, **kwargs)


class TestOrchestratorLoop:
    def test_clean_run_merges_and_reports(self, tmp_path, smoke_env):
        runner = _FakeRunner(["ok", "ok"])
        result = _orchestrator(tmp_path, runner).run()
        assert result.ok()
        assert result.retries == 0
        assert [s.status for s in result.shards] == ["merged", "merged"]
        assert sum(s.merged_keys for s in result.shards) == 7
        doc = json.loads((tmp_path / "c.json").read_text())
        assert {f["status"] for f in doc["figures"]} == {"pass"}
        page = (tmp_path / "status.html").read_text()
        assert "complete" in page and "http-equiv" not in page

    def test_crash_retries_and_recovers(self, tmp_path, smoke_env):
        runner = _FakeRunner(["crash", "ok", "ok"])
        result = _orchestrator(tmp_path, runner).run()
        assert result.ok()
        assert result.retries == 1
        # the crashed shard relaunched after the queue drained
        crashed = runner.launches[0][0]
        assert runner.launches[-1] == (crashed, "ok")
        assert result.shards[crashed].attempts == 2

    def test_fatal_aborts_everything(self, tmp_path, smoke_env):
        runner = _FakeRunner(["fatal"])
        result = _orchestrator(tmp_path, runner).run()
        assert not result.ok()
        assert result.aborted
        assert result.campaign is None
        statuses = sorted(s.status for s in result.shards)
        assert statuses == ["aborted", "failed"]
        # the fatal shard was never retried
        assert len(runner.launches) == 1
        page = (tmp_path / "status.html").read_text()
        assert "failed" in page

    def test_retry_exhaustion_fails_the_shard(self, tmp_path,
                                              smoke_env):
        runner = _FakeRunner(["crash", "crash", "crash", "crash"])
        result = _orchestrator(tmp_path, runner).run()
        assert not result.ok()
        failed = [s for s in result.shards if s.status == "failed"]
        assert failed and failed[0].attempts == 2  # 1 + max_retries
        assert "exit 1" in failed[0].error

    def test_heartbeat_silence_kills_and_retries(self, tmp_path,
                                                 smoke_env):
        runner = _FakeRunner(["hang", "ok", "ok"])
        result = _orchestrator(tmp_path, runner,
                               heartbeat_timeout_s=0.05).run()
        assert result.ok()
        assert result.retries == 1
        assert runner.handles[0].killed
        assert any("no heartbeat" in e for e in result.events)

    def test_chaos_without_live_worker_never_fires_on_fakes(
            self, tmp_path, smoke_env):
        """Fake 'ok' workers exit before the poll loop ever sees them
        alive, so a requested chaos kill cannot fire — the result
        records the shortfall instead of pretending."""
        runner = _FakeRunner(["ok", "ok"])
        result = _orchestrator(tmp_path, runner, chaos_kills=1).run()
        assert result.chaos_requested == 1
        assert result.chaos_killed == 0

    def test_retry_reuses_the_shard_store(self, tmp_path, smoke_env):
        """The elastic-cost contract: a second attempt serves finished
        tasks from the first attempt's store.  (This attempt exits
        after its final flush; what a worker killed *mid-window* costs
        is pinned by ``test_killed_worker_loses_at_most_one_window``.)"""
        class _HalfThenOk(_FakeRunner):
            def launch(self, shard, slot, **kwargs):
                if not self.launches:
                    # attempt 1: really run the shard, then report a
                    # crash anyway (worker died after finishing)
                    run_shard_worker(shard.manifest_path,
                                     shard.store_dir,
                                     out=io.StringIO())
                    self.launches.append((shard.index, "crash"))
                    handle = _Handle(1, "fake:0")
                    self.handles.append(handle)
                    return handle
                return super().launch(shard, slot, **kwargs)

        runner = _HalfThenOk([])
        result = _orchestrator(tmp_path, runner, n_shards=1).run()
        assert result.ok()
        assert result.retries == 1
        # attempt 2 wrote nothing new: every artifact was cached
        shard = result.shards[0]
        assert shard.attempts == 2
        assert shard.merged_keys == 7

    def test_killed_worker_loses_at_most_one_window(self, tmp_path,
                                                    smoke_env):
        """The bound on the contract above: results are persisted
        write-behind (32 results or a second per append), so a worker
        SIGKILLed mid-shard loses at most its one unflushed window —
        here the 5 results it had received, all inside one window — and
        the retry recomputes exactly that plus the unstarted rest."""
        import subprocess
        import sys
        import textwrap

        from repro.harness.store import ColumnarStore
        orch = _orchestrator(tmp_path, _FakeRunner([]), n_shards=1)
        (shard,) = orch.plan()
        script = textwrap.dedent("""
            import os, sys
            from repro.harness.backends import worker
            from repro.harness.backends.base import Backend
            drain = Backend.drain
            def dying_drain(self, arrivals, store, cb):
                seen = []
                def die_after_five(key, outcome, wall_s):
                    cb(key, outcome, wall_s)
                    seen.append(key)
                    if len(seen) == 5:
                        os._exit(9)  # no unwinding: what SIGKILL does
                return drain(self, arrivals, store, die_after_five)
            Backend.drain = dying_drain
            sys.exit(worker.main([sys.argv[1], "--store", sys.argv[2]]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script, shard.manifest_path,
             shard.store_dir], env=env, timeout=120,
            stdout=subprocess.DEVNULL)
        assert proc.returncode == 9
        persisted = len(ColumnarStore(shard.store_dir).keys())
        assert persisted <= 5  # the lost window, and nothing else
        out = io.StringIO()
        assert run_shard_worker(shard.manifest_path, shard.store_dir,
                                out=out) == 0
        assert (f"({7 - persisted} executed, {persisted} cached)"
                in out.getvalue())
        assert len(ColumnarStore(shard.store_dir).keys()) == 7

    def test_raising_merge_kills_every_live_worker(self, tmp_path,
                                                   smoke_env,
                                                   monkeypatch):
        """A merge that raises (here: what ``merge_from`` does on a
        pre-v3 shard store) escapes the loop — and takes no live
        worker with it into the background."""
        runner = _FakeRunner(["hang", "ok"])
        orch = _orchestrator(tmp_path, runner, fan_out=2)

        def refuse(source):
            raise ValueError(f"{source.root}: predates segment format 3")
        monkeypatch.setattr(orch.store, "merge_from", refuse)
        with pytest.raises(ValueError, match="predates segment format 3"):
            orch.run()
        hung, finished = runner.handles
        assert hung.killed and not finished.killed
        assert any(e == "shard 0 aborted" for e in orch.events)
        assert "failed" in (tmp_path / "status.html").read_text()

    def test_interrupt_kills_every_live_worker(self, tmp_path, smoke_env):
        """Ctrl-C reaches the orchestrator, not its workers (they run
        in their own sessions): every live handle is killed before the
        interrupt propagates."""
        runner = _FakeRunner(["hang", "interrupt"])
        orch = _orchestrator(tmp_path, runner, fan_out=2)
        with pytest.raises(KeyboardInterrupt):
            orch.run()
        assert len(runner.handles) == 2
        assert all(handle.killed for handle in runner.handles)
        assert sorted(e for e in orch.events if e.endswith("aborted")) \
            == ["shard 0 aborted", "shard 1 aborted"]

    def test_empty_selection_is_an_error(self, tmp_path, smoke_env):
        with pytest.raises(ValueError, match="empty campaign"):
            Orchestrator([], results_dir=str(tmp_path / "r"))
