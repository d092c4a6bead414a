"""Self-healing executor: retries, timeouts, journal and resume, plus
per-worker setup hoisting and the leftover-segment sweeper."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, InfeasibleError
from repro.exec import (
    ExecContext,
    RetryPolicy,
    RunJournal,
    SweepTask,
    run_sweep,
    sweep_orphans,
    sweep_stats,
    task_fn,
)
from repro.exec.orphans import SEG_PREFIX


@task_fn("test/selfheal-exit")
def _selfheal_exit(*, x):
    os._exit(1)  # die without cleanup: breaks the process pool


@task_fn("test/count")
def _count(*, x, marker_dir):
    """Append one execution record; succeed with 10*x."""
    path = Path(marker_dir) / f"count-{x}.log"
    with open(path, "a") as fh:
        fh.write("run\n")
    return 10 * x


@task_fn("test/flaky-once")
def _flaky_once(*, x, marker_dir):
    """Crash on the first execution, succeed on every later one."""
    path = Path(marker_dir) / f"flaky-{x}.log"
    with open(path, "a") as fh:
        fh.write("run\n")
    if len(path.read_text().splitlines()) == 1:
        raise RuntimeError(f"transient failure for {x}")
    return 10 * x


@task_fn("test/infeasible-counted")
def _infeasible_counted(*, x, marker_dir):
    path = Path(marker_dir) / f"inf-{x}.log"
    with open(path, "a") as fh:
        fh.write("run\n")
    raise InfeasibleError("operating point rejected")


@task_fn("test/sleeper")
def _sleeper(*, seconds):
    time.sleep(seconds)
    return seconds


def executions(marker_dir, name) -> int:
    path = Path(marker_dir) / name
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())


def _ctx(tmp_path, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExecContext(**kw)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)

    def test_deterministic_exponential_backoff(self):
        p = RetryPolicy(max_retries=3, backoff_base_s=0.5)
        assert [p.backoff_s(a) for a in range(3)] == [0.5, 1.0, 2.0]

    def test_retryable_taxonomy(self):
        p = RetryPolicy()
        assert p.retryable("error") and p.retryable("timeout")
        assert not p.retryable("infeasible") and not p.retryable("ok")


class TestRetries:
    def test_transient_failure_recovers(self, tmp_path):
        task = SweepTask.make("test/flaky-once", x=1, marker_dir=str(tmp_path))
        (out,) = run_sweep(
            [task], ctx=_ctx(tmp_path), policy=RetryPolicy(max_retries=2)
        )
        assert out.ok and out.unwrap() == 10
        assert out.retries == 1 and out.retried
        assert executions(tmp_path, "flaky-1.log") == 2
        assert "1 retried (1 retries)" in sweep_stats([out])

    def test_without_policy_single_shot(self, tmp_path):
        task = SweepTask.make("test/flaky-once", x=2, marker_dir=str(tmp_path))
        (out,) = run_sweep([task], ctx=_ctx(tmp_path))
        assert out.status == "error" and out.retries == 0
        assert executions(tmp_path, "flaky-2.log") == 1

    def test_infeasible_is_never_retried(self, tmp_path):
        task = SweepTask.make(
            "test/infeasible-counted", x=3, marker_dir=str(tmp_path)
        )
        (out,) = run_sweep(
            [task],
            ctx=_ctx(tmp_path, cache=False),
            policy=RetryPolicy(max_retries=5),
        )
        assert out.infeasible
        assert executions(tmp_path, "inf-3.log") == 1

    def test_retries_exhausted_reports_error(self, tmp_path):
        # flaky-once needs 1 retry; with 0 allowed, it stays an error
        # and is re-run from scratch next sweep (not cached).
        task = SweepTask.make("test/flaky-once", x=4, marker_dir=str(tmp_path))
        ctx = _ctx(tmp_path)
        (out,) = run_sweep([task], ctx=ctx, policy=RetryPolicy(max_retries=0))
        assert out.status == "error"
        (again,) = run_sweep([task], ctx=ctx, policy=RetryPolicy(max_retries=0))
        assert again.ok  # second sweep, second execution, marker now set


class TestTimeouts:
    def test_hung_task_is_cut_loose(self, tmp_path):
        fast = SweepTask.make("test/sleeper", seconds=0.01)
        slow = SweepTask.make("test/sleeper", seconds=120.0)
        t0 = time.monotonic()
        outcomes = run_sweep(
            [fast, slow],
            ctx=_ctx(tmp_path, jobs=2, cache=False),
            policy=RetryPolicy(timeout_s=3.0),
        )
        assert time.monotonic() - t0 < 60.0
        assert outcomes[0].ok and outcomes[0].unwrap() == 0.01
        assert outcomes[1].timed_out
        assert outcomes[1].error_type == "TimeoutError"
        assert "1 timeouts" in sweep_stats(outcomes)
        with pytest.raises(Exception, match="wall-clock budget"):
            outcomes[1].unwrap()

    def test_serial_runs_ignore_timeout(self, tmp_path):
        # A serial run cannot preempt itself: the budget is documented
        # as pool-only, the task completes.
        task = SweepTask.make("test/sleeper", seconds=0.05)
        (out,) = run_sweep(
            [task],
            ctx=_ctx(tmp_path, cache=False),
            policy=RetryPolicy(timeout_s=0.001),
        )
        assert out.ok


class TestJournalResume:
    def make_tasks(self, tmp_path, xs=(1, 2, 3)):
        return [
            SweepTask.make("test/count", x=x, marker_dir=str(tmp_path))
            for x in xs
        ]

    def test_journal_records_every_outcome(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = self.make_tasks(tmp_path)
        run_sweep(tasks, ctx=_ctx(tmp_path), journal_path=str(journal_path))
        lines = [json.loads(l) for l in journal_path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        outcomes = [l for l in lines if l["kind"] == "outcome"]
        assert {o["digest"] for o in outcomes} == {t.digest for t in tasks}
        assert all(o["status"] == "ok" for o in outcomes)

    def test_resume_runs_only_unfinished_tasks(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        good = self.make_tasks(tmp_path, xs=(1, 2))
        bad = SweepTask.make("test/flaky-once", x=9, marker_dir=str(tmp_path))
        tasks = [good[0], bad, good[1]]
        ctx = _ctx(tmp_path, cache=False)

        first = run_sweep(tasks, ctx=ctx, journal_path=str(journal_path))
        assert [o.status for o in first] == ["ok", "error", "ok"]

        second = run_sweep(
            tasks, ctx=ctx, journal_path=str(journal_path), resume=True
        )
        assert all(o.ok for o in second)
        assert [o.unwrap() for o in second] == [10, 90, 20]
        # The finished tasks were served from the journal, not re-run.
        assert second[0].cached and second[2].cached
        assert not second[1].cached
        assert executions(tmp_path, "count-1.log") == 1
        assert executions(tmp_path, "count-2.log") == 1
        assert executions(tmp_path, "flaky-9.log") == 2

    def test_truncated_final_line_is_discarded(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = self.make_tasks(tmp_path)
        run_sweep(tasks, ctx=_ctx(tmp_path, cache=False),
                  journal_path=str(journal_path))
        with open(journal_path, "a") as fh:
            fh.write('{"kind": "outcome", "digest": "tru')  # mid-kill append
        journal = RunJournal(journal_path, resume=True)
        assert len(journal.completed()) == len(tasks)
        journal.close()

    def test_resume_refuses_foreign_code_salt(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "run.jsonl"
        run_sweep(self.make_tasks(tmp_path), ctx=_ctx(tmp_path),
                  journal_path=str(journal_path))
        import repro.exec.journal as journal_mod

        monkeypatch.setattr(journal_mod, "code_salt", lambda: "different")
        with pytest.raises(ConfigurationError, match="different simulator"):
            RunJournal(journal_path, resume=True)

    def test_without_resume_journal_is_rewritten(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        tasks = self.make_tasks(tmp_path)
        ctx = _ctx(tmp_path, cache=False)
        run_sweep(tasks, ctx=ctx, journal_path=str(journal_path))
        run_sweep(tasks, ctx=ctx, journal_path=str(journal_path))
        # Fresh journal, fresh executions: resume must be explicit.
        assert executions(tmp_path, "count-1.log") == 2

    def test_ambient_journal_dir(self, tmp_path):
        ctx = _ctx(tmp_path, cache=False, journal_dir=str(tmp_path / "jrn"))
        tasks = self.make_tasks(tmp_path)
        run_sweep(tasks, ctx=ctx)
        journals = list((tmp_path / "jrn").glob("sweep-*.jsonl"))
        assert len(journals) == 1
        resumed = run_sweep(tasks, ctx=ctx.with_(resume=True))
        assert all(o.cached for o in resumed)
        assert executions(tmp_path, "count-1.log") == 1

    def test_journal_survives_pool_crash_and_resumes(self, tmp_path):
        """The chaos path: a worker hard-exits mid-sweep (jobs=2), the
        journal keeps what finished, and a resumed run completes only
        the unfinished tasks."""
        journal_path = tmp_path / "run.jsonl"
        ctx = _ctx(tmp_path, jobs=2, cache=False)
        tasks = self.make_tasks(tmp_path, xs=(1, 2, 3, 4)) + [
            SweepTask.make("test/selfheal-exit", x=13)
        ]
        first = run_sweep(tasks, ctx=ctx, journal_path=str(journal_path))
        assert any(o.status == "error" for o in first)

        # Swap the killer for a benign task at the same position and
        # resume: journaled-ok tasks must not run again.
        tasks[-1] = SweepTask.make("test/count", x=13, marker_dir=str(tmp_path))
        ok_before = {o.task.digest for o in first if o.ok}
        second = run_sweep(
            tasks, ctx=ctx, journal_path=str(journal_path), resume=True
        )
        assert all(o.ok for o in second)
        for o in second:
            if o.task.digest in ok_before:
                assert o.cached
                x = o.task.kwargs["x"]
                assert executions(tmp_path, f"count-{x}.log") == 1


# -- pool-initializer hoisting -------------------------------------------------


@task_fn("test/worker-metrics")
def _worker_metrics(*, x):
    from repro.exec import executor, registry

    return {
        "pid": os.getpid(),
        "inits": executor._WORKER_INIT_COUNT,
        "preloads": registry.PRELOAD_PASSES,
        "executed": executor._TASKS_EXECUTED,
    }


class TestPoolInitHoisting:
    def test_worker_initializes_once_for_many_tasks(self, tmp_path):
        """Regression for the per-task startup waste: registry import
        and context/cache setup must run once per worker process, not
        once per task."""
        tasks = [SweepTask.make("test/worker-metrics", x=x) for x in range(8)]
        ctx = ExecContext(jobs=2, cache=False, cache_dir=str(tmp_path))
        outs = run_sweep(tasks, ctx=ctx)
        reports = [o.unwrap() for o in outs]

        by_pid: dict[int, list[dict]] = {}
        for rep in reports:
            by_pid.setdefault(rep["pid"], []).append(rep)
        assert by_pid, "no worker reports collected"
        for pid, reps in by_pid.items():
            # The initializer ran exactly once in this worker...
            assert {r["inits"] for r in reps} == {1}, f"worker {pid} re-inited"
            # ...and op-module preloading never re-ran per task.
            assert len({r["preloads"] for r in reps}) == 1
        # Every task actually executed (the counter is per-process).
        total = sum(max(r["executed"] for r in reps) for reps in by_pid.values())
        assert total == len(tasks)


# -- leftover shared-memory segments -------------------------------------------

SEGMENT_DIR = "/dev/shm"


@pytest.mark.skipif(
    not os.path.isdir(SEGMENT_DIR), reason="needs a POSIX shared-memory filesystem"
)
class TestSweeper:
    """Segments named ``repro-shm-<pid>-<digest>`` were created by
    earlier versions; the sweeper reaps those of dead owners."""

    @staticmethod
    def _touch(name: str) -> str:
        path = os.path.join(SEGMENT_DIR, name)
        with open(path, "w") as fh:
            fh.write("x")
        return path

    def test_sweeper_is_exported(self):
        from repro.exec import orphans

        assert sweep_orphans is orphans.sweep_orphans
        assert isinstance(sweep_orphans(), list)

    def test_dead_owner_segment_is_reaped(self):
        # A child process creates a segment in the old naming scheme
        # and dies without cleanup: the canonical orphan.
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import os\n"
                "from multiprocessing import shared_memory, resource_tracker\n"
                "seg = shared_memory.SharedMemory(\n"
                f"    name=f'{SEG_PREFIX}-{{os.getpid()}}-deadbeefcafebabe',\n"
                "    create=True, size=64)\n"
                "resource_tracker.unregister(seg._name, 'shared_memory')\n"
                "print(seg.name)\n"
                "os._exit(0)\n",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        orphan = child.stdout.strip()
        assert os.path.exists(os.path.join(SEGMENT_DIR, orphan))
        # A live owner's segment (here: our parent's pid) is never touched.
        live = self._touch(f"{SEG_PREFIX}-{os.getppid()}-livelivelivelive")
        try:
            removed = sweep_orphans()
            assert orphan in removed
            assert not os.path.exists(os.path.join(SEGMENT_DIR, orphan))
            assert os.path.exists(live)
        finally:
            os.unlink(live)

    def test_own_pid_segment_is_reaped(self):
        """Pid-reuse orphan: a segment named with *our* pid was left by
        a dead incarnation of this pid, since this process creates none."""
        name = f"{SEG_PREFIX}-{os.getpid()}-feedfacefeedface"
        path = self._touch(name)
        assert name in sweep_orphans()
        assert not os.path.exists(path)

    def test_foreign_names_are_ignored(self):
        paths = [self._touch(f"{SEG_PREFIX}-notapid-x"), self._touch("other-1-x")]
        try:
            removed = sweep_orphans()
            assert f"{SEG_PREFIX}-notapid-x" not in removed
            assert "other-1-x" not in removed
            assert all(os.path.exists(p) for p in paths)
        finally:
            for p in paths:
                os.unlink(p)
