"""The elastic campaign orchestrator (ISSUE 10 tentpole).

Unit level: balanced LPT planning, the worker's scoped environment
and heartbeat protocol, and the SSH runner's command construction.
Orchestrator level: fake runners drive the retry / fatal-abort /
retry-exhaustion / heartbeat-timeout paths without spawning a single
subprocess.  The real-subprocess chaos drill (SIGKILL a live worker
mid-shard, campaign still matches single-host output) lives in
``tests/test_cli.py::TestOrchestrate``.
"""

import io
import json
import os

import pytest

from repro.harness.backends.shard import shard_partition
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
)

SELECTION = ("table1", "fig24")  # 7 cheap model tasks at smoke scale


class TestBalancedPartition:
    def test_equal_weights_reduce_to_round_robin(self):
        """No wall-time history must plan exactly like `shard plan`:
        round-robin over the sorted keys."""
        keys = [f"k{i:02d}" for i in range(11)]
        weighted = [(k, 0.0) for k in reversed(keys)]
        assert balanced_partition(weighted, 3) == \
            shard_partition(keys, 3)

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


class TestWorkerValidation:
    def test_unreadable_manifest_is_fatal(self, tmp_path):
        out = io.StringIO()
        rc = run_shard_worker(str(tmp_path / "nope.json"),
                              str(tmp_path / "s"), out=out)
        assert rc == EXIT_FATAL
        assert "cannot read" in out.getvalue()

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
        assert "REPRO_SHARD" not in os.environ


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
            self.shard(tmp_path), workers=2, backend="serial")
        assert argv[:3] == ["pyX", "-m",
                            "repro.harness.backends.worker"]
        assert "--workers" in argv and "2" in argv
        assert "--backend" in argv and "serial" in argv


# ----------------------------------------------------------------------
# orchestrator event loop, driven by fake runners
# ----------------------------------------------------------------------
class _Handle(WorkerHandle):
    def __init__(self, rc, name="fake:0"):
        self.rc = rc
        self.name = name
        self.killed = False

    def poll(self):
        return self.rc

    def kill(self):
        self.killed = True


class _FakeRunner(WorkerRunner):
    """Consumes a scripted behavior per launch: ``ok`` runs the shard
    in-process (real worker, real store), ``crash``/``fatal`` return
    the exit code without running, ``hang`` never exits."""

    name = "fake"

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.launches = []
        self.handles = []

    def launch(self, shard, slot, *, workers, backend, log_path):
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

        from repro.harness.store import open_store
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
        persisted = len(open_store(shard.store_dir).keys())
        assert persisted <= 5  # the lost window, and nothing else
        out = io.StringIO()
        assert run_shard_worker(shard.manifest_path, shard.store_dir,
                                out=out) == 0
        assert (f"({7 - persisted} executed, {persisted} cached)"
                in out.getvalue())
        assert len(open_store(shard.store_dir).keys()) == 7

    def test_empty_selection_is_an_error(self, tmp_path, smoke_env):
        with pytest.raises(ValueError, match="empty campaign"):
            Orchestrator([], results_dir=str(tmp_path / "r"))
