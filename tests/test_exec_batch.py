"""Fused batch dispatch: grouping, scatter, descoping, cache parity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import (
    BatchTask,
    ExecContext,
    RetryPolicy,
    SweepTask,
    register_batchable,
    run_sweep,
    task_fn,
)
from repro.exec.registry import batchable_for


@task_fn("test/poly")
def _poly(*, base, x, marker_dir):
    _mark(marker_dir, "scalar")
    return base + x * x


@task_fn("test/poly-batch", cache=False)
def _poly_batch(*, base, points, marker_dir):
    _mark(marker_dir, "batch")
    if base == 666:
        raise RuntimeError("poisoned batch")
    if base == 667:
        return {"not": "a list"}
    out = []
    for point in points:
        kw = dict(point)
        if kw["x"] < 0:
            out.append({"status": "infeasible", "error": "negative point"})
        else:
            out.append({"status": "ok", "value": base + kw["x"] ** 2})
    return out


register_batchable(
    "test/poly", "test/poly-batch", shared=("base", "marker_dir"), point=("x",)
)


@task_fn("test/kaboom")
def _kaboom(*, base, x, marker_dir):
    _mark(marker_dir, "scalar")
    return base * 10 + x


@task_fn("test/kaboom-batch", cache=False)
def _kaboom_batch(*, base, points, marker_dir):
    import os

    _mark(marker_dir, "batch")
    flag = Path(marker_dir) / "died.flag"
    if not flag.exists():
        # First fused attempt: die mid-batch with no cleanup, the way a
        # kill -9 would — nothing may reach cache or journal.
        flag.write_text("x")
        os._exit(1)
    return [{"status": "ok", "value": base * 10 + dict(p)["x"]} for p in points]


register_batchable(
    "test/kaboom", "test/kaboom-batch", shared=("base", "marker_dir"), point=("x",)
)


def _mark(marker_dir, kind):
    with open(Path(marker_dir) / f"{kind}.log", "a") as fh:
        fh.write("run\n")


def _calls(marker_dir, kind) -> int:
    path = Path(marker_dir) / f"{kind}.log"
    return len(path.read_text().splitlines()) if path.exists() else 0


def _tasks(tmp_path, base, xs):
    return [
        SweepTask.make("test/poly", base=base, x=x, marker_dir=str(tmp_path))
        for x in xs
    ]


def _ctx(tmp_path, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("cache", False)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExecContext(**kw)


class TestFusion:
    def test_shared_groups_fuse_into_one_call(self, tmp_path):
        tasks = _tasks(tmp_path, 1, [1, 2, 3, 4]) + _tasks(tmp_path, 2, [5, 6])
        outs = run_sweep(tasks, ctx=_ctx(tmp_path))
        assert [o.unwrap() for o in outs] == [2, 5, 10, 17, 27, 38]
        # One fused call per distinct shared-param group, zero scalars.
        assert _calls(tmp_path, "batch") == 2
        assert _calls(tmp_path, "scalar") == 0

    def test_singleton_group_stays_scalar(self, tmp_path):
        (out,) = run_sweep(_tasks(tmp_path, 3, [2]), ctx=_ctx(tmp_path))
        assert out.unwrap() == 7
        assert _calls(tmp_path, "batch") == 0
        assert _calls(tmp_path, "scalar") == 1

    def test_no_batch_context_dispatches_scalars(self, tmp_path):
        tasks = _tasks(tmp_path, 1, [1, 2, 3])
        outs = run_sweep(tasks, ctx=_ctx(tmp_path, batch=False))
        assert [o.unwrap() for o in outs] == [2, 5, 10]
        assert _calls(tmp_path, "batch") == 0
        assert _calls(tmp_path, "scalar") == 3

    def test_outcomes_keep_task_order(self, tmp_path):
        # Interleave the two groups; fused dispatch must scatter back
        # to the original indices.
        t1 = _tasks(tmp_path, 1, [1, 2])
        t2 = _tasks(tmp_path, 2, [3, 4])
        tasks = [t1[0], t2[0], t1[1], t2[1]]
        outs = run_sweep(tasks, ctx=_ctx(tmp_path))
        assert [o.unwrap() for o in outs] == [2, 11, 5, 18]
        assert [o.task is t for o, t in zip(outs, tasks)]

    def test_infeasible_points_scatter_individually(self, tmp_path):
        tasks = _tasks(tmp_path, 1, [2, -1, 3])
        outs = run_sweep(tasks, ctx=_ctx(tmp_path))
        assert outs[0].unwrap() == 5
        assert outs[1].infeasible and "negative point" in outs[1].error
        assert outs[2].unwrap() == 10
        assert _calls(tmp_path, "batch") == 1


class TestDescoping:
    def test_poisoned_group_retries_members_as_scalars(self, tmp_path):
        tasks = _tasks(tmp_path, 666, [1, 2, 3])
        outs = run_sweep(
            tasks, ctx=_ctx(tmp_path), policy=RetryPolicy(max_retries=1)
        )
        assert [o.unwrap() for o in outs] == [667, 670, 675]
        assert all(o.retries == 1 for o in outs)
        assert _calls(tmp_path, "batch") == 1  # the poisoned attempt
        assert _calls(tmp_path, "scalar") == 3  # one retry per member

    def test_malformed_payload_is_descoped_too(self, tmp_path):
        tasks = _tasks(tmp_path, 667, [1, 2])
        outs = run_sweep(
            tasks, ctx=_ctx(tmp_path), policy=RetryPolicy(max_retries=1)
        )
        assert [o.unwrap() for o in outs] == [668, 671]
        assert _calls(tmp_path, "batch") == 1
        assert _calls(tmp_path, "scalar") == 2

    def test_without_retries_the_group_failure_is_final(self, tmp_path):
        tasks = _tasks(tmp_path, 666, [1, 2])
        outs = run_sweep(tasks, ctx=_ctx(tmp_path))
        assert all(o.status == "error" for o in outs)
        assert all("poisoned batch" in o.error for o in outs)


class TestBatchTask:
    def test_fuse_and_wire_form(self, tmp_path):
        tasks = _tasks(tmp_path, 5, [1, 2, 3])
        spec = batchable_for("test/poly")
        batch = BatchTask.fuse("test/poly-batch", spec.shared, tasks, (0, 1, 2))
        assert batch.n_points == 3
        # Full scalar kwargs (shared + point) — what per-point cache
        # and journal entries are keyed by.
        member = dict(batch.member_kwargs(1))
        assert member["x"] == 2 and member["base"] == 5
        wire = batch.to_sweep_task()
        assert wire.fn == "test/poly-batch"
        assert wire.kwargs["points"] == batch.points
        assert wire.kwargs["base"] == 5
        # Identity is content-only: member indices don't leak into it.
        other = BatchTask.fuse("test/poly-batch", spec.shared, tasks, (2, 0, 1))
        assert other.to_sweep_task().digest != wire.digest  # order differs
        same = BatchTask.fuse("test/poly-batch", spec.shared, tasks, (0, 1, 2))
        assert same.to_sweep_task().digest == wire.digest


class TestResumeAfterMidBatchKill:
    def test_journal_keeps_member_digests_only_and_resumes(self, tmp_path):
        """A worker killed mid-fused-batch must leave the journal with
        each member recorded exactly once under its *scalar* digest
        (from the descoped retries) and never under the fused wire
        digest — so ``--resume`` serves every member and re-runs none."""
        import json

        journal_path = tmp_path / "journal.jsonl"
        tasks = [
            SweepTask.make("test/kaboom", base=7, x=x, marker_dir=str(tmp_path))
            for x in (1, 2, 3)
        ]
        ctx = _ctx(tmp_path, jobs=2)
        outs = run_sweep(
            tasks,
            ctx=ctx,
            journal_path=str(journal_path),
            policy=RetryPolicy(max_retries=1),
        )
        assert [o.unwrap() for o in outs] == [71, 72, 73]
        assert _calls(tmp_path, "batch") == 1  # the killed attempt
        assert _calls(tmp_path, "scalar") == 3  # descoped retries

        records = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        digests = [r["digest"] for r in records if r.get("kind") == "outcome"]
        # Exactly one record per member, keyed by the scalar digest...
        assert sorted(digests) == sorted(t.digest for t in tasks)
        # ...and the fused wire digest never reaches the journal.
        spec = batchable_for("test/kaboom")
        fused = BatchTask.fuse(
            "test/kaboom-batch", spec.shared, tasks, (0, 1, 2)
        )
        assert fused.to_sweep_task().digest not in digests

        # Resume: every member is served from the journal verbatim.
        outs2 = run_sweep(
            tasks, ctx=ctx, journal_path=str(journal_path), resume=True
        )
        assert [o.unwrap() for o in outs2] == [71, 72, 73]
        assert all(o.cached for o in outs2)
        assert _calls(tmp_path, "batch") == 1
        assert _calls(tmp_path, "scalar") == 3


class TestJointEvalParity:
    """The production batchable op: fused and scalar paths must agree
    bit for bit, and fused runs must warm the per-point scalar cache."""

    def _joint_tasks(self):
        from repro.core.joint import JointSimParams

        params = JointSimParams(sim_cores=1, duration_s=2.0, warmup_s=0.5)
        return [
            SweepTask.make(
                "joint-eval",
                arity=4,
                constraint_ms=L,
                background=0.2,
                level=level,
                utilization=0.3,
                governor="eprons-server",
                params=params,
                traffic_seed=1,
            )
            for L in (25.0, 40.0)
            for level in (0, 3)
        ]

    def test_fused_matches_scalar_and_warms_cache(self, tmp_path):
        tasks = self._joint_tasks()
        fused_ctx = _ctx(tmp_path, cache=True, batch=True)
        cold = run_sweep(tasks, ctx=fused_ctx)
        assert not any(o.cached for o in cold)

        # Warm re-run under *scalar* dispatch: every point must be
        # served from the cache entries the batch op recorded.
        warm = run_sweep(tasks, ctx=_ctx(tmp_path, cache=True, batch=False))
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert a.status == b.status
            if a.ok:
                assert a.unwrap().total_watts == b.unwrap().total_watts
                assert a.unwrap().query_p95_s == b.unwrap().query_p95_s

        # And a cold scalar run computes identical values.
        scalar_ctx = _ctx(
            tmp_path, cache=True, cache_dir=str(tmp_path / "cache2"), batch=False
        )
        scalar = run_sweep(tasks, ctx=scalar_ctx)
        for a, b in zip(cold, scalar):
            assert a.status == b.status
            if a.ok:
                assert a.unwrap().total_watts == b.unwrap().total_watts
                assert a.unwrap().violation_rate == b.unwrap().violation_rate

    def test_fused_infeasible_group_charges_the_solve_time(self, tmp_path):
        """A group whose shared consolidation solve is infeasible reports
        task time like its scalar twins: each member carries its share
        of the solve, never 0."""
        import repro.exec.ops  # noqa: F401 — registers the batch spec
        from repro.core.joint import JointSimParams

        params = JointSimParams(sim_cores=1, duration_s=2.0, warmup_s=0.5)
        tasks = [
            SweepTask.make(
                "joint-eval", arity=4, constraint_ms=L, background=0.5,
                level=3, utilization=0.3, governor="eprons-server",
                params=params, traffic_seed=1,
            )
            for L in (25.0, 40.0, 55.0)
        ]
        fused = run_sweep(tasks, ctx=_ctx(tmp_path, batch=True))
        assert all(o.infeasible for o in fused)
        assert all(o.duration_s > 0.0 for o in fused)
        scalar = run_sweep(tasks, ctx=_ctx(tmp_path, batch=False))
        assert [o.error for o in fused] == [o.error for o in scalar]

    def test_fresh_process_fuses_without_importing_ops(self):
        """A driver that imports only ``repro.exec`` still gets fused
        dispatch: the batch specs register before the first round."""
        script = (
            "import sys\n"
            "from repro.core.joint import JointSimParams\n"
            "from repro.exec import ExecContext, SweepTask, executor, run_sweep\n"
            "assert 'repro.exec.ops' not in sys.modules\n"
            "fused = []\n"
            "inner = executor._run_round\n"
            "def spy(tasks, units, ctx, timeout_s):\n"
            "    fused.extend(u.fused for u in units)\n"
            "    return inner(tasks, units, ctx, timeout_s)\n"
            "executor._run_round = spy\n"
            "params = JointSimParams(sim_cores=1, duration_s=2.0, warmup_s=0.5)\n"
            "tasks = [SweepTask.make('joint-eval', arity=4, constraint_ms=L,\n"
            "    background=0.5, level=3, utilization=0.3,\n"
            "    governor='eprons-server', params=params, traffic_seed=1)\n"
            "    for L in (25.0, 40.0)]\n"
            "run_sweep(tasks, ctx=ExecContext(cache=False))\n"
            "print(fused)\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env, cwd=root,
        )
        assert out.stdout.strip() == "[True]"

    def test_joint_eval_is_registered_batchable(self):
        import repro.exec.ops  # noqa: F401 — registers the spec

        spec = batchable_for("joint-eval")
        assert spec is not None
        assert spec.batch_fn == "joint-eval-batch"
        assert "constraint_ms" in spec.point and "governor" in spec.point
        assert "arity" in spec.shared and "params" in spec.shared
