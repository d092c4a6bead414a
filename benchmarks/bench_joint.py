"""Benchmark: fused batch dispatch for joint sweeps.

Times the two joint-sweep experiment drivers end to end in three
executor configurations:

* **scalar** — ``batch=False``: every sweep point is an independent
  task that re-solves the per-group consolidation its siblings also
  solve.
* **fused** — ``batch=True``: cache-miss points that share
  (background, level, …) are fused into one batch call that hoists the
  consolidation solve and traffic build out of the per-point loop.
* **multipoint** — fused dispatch with ``server_engine="multipoint"``:
  each fused batch runs its whole constraint grid as one lockstep
  :func:`repro.simfast.run_multipoint_simulation` pass, attacking the
  DES floor itself.

All configurations must produce **bit-identical** experiment rows —
asserted here over a SHA-256 of every row of both figures.  Each
repeat runs the three configurations back to back, so slow phases of
the host hit all of them alike; rows report the median, min and max
over the repeats.

Per experiment and grid the benchmark reports whole-driver wall-clock
at the **paper-default** grid (15 s simulation windows, DES-bound) and
at a **fine-grain** grid (1 s windows, where dispatch overhead weighs
more), plus the structural dispatch count: scalar tasks vs fused
dispatch units for the full fig13 grid.

The persistent result cache is disabled throughout: the benchmark
measures computation, not disk reads.

Run as a module (repository root on ``sys.path``, ``src`` on
``PYTHONPATH``)::

    PYTHONPATH=src python -m benchmarks.bench_joint --jobs 2
    PYTHONPATH=src python -m benchmarks.bench_joint --quick   # CI smoke

Emits ``BENCH_joint.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import time

from repro.core.joint import JointSimParams
from repro.exec import ExecContext, use_context
from repro.exec.executor import _fuse_round
from repro.experiments import datacenter_scale, fig13_joint_power

JOBS = 8
SEED = 1
REPEATS = 3

#: The online/fine-grain operating point: short windows, where the
#: dispatch layer rather than the DES bounds wall-clock.
FINE_PARAMS = JointSimParams(sim_cores=1, duration_s=1.0, warmup_s=0.25)

MODES = ("scalar", "fused", "multipoint")


def rows_digest(result) -> str:
    """SHA-256 over every row the experiment would print/plot."""
    payload = {
        "figure": result.figure,
        "columns": list(result.columns),
        "rows": [[repr(v) for v in row] for row in result.rows],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def grids(quick: bool):
    """(experiment, grid label, run fn, spec) rows."""
    if quick:
        fig_spec = dict(
            backgrounds=(0.2,),
            constraints_ms=(25.0, 31.0, 40.0),
            params=JointSimParams(sim_cores=1, duration_s=4.0, warmup_s=1.0),
            seed=SEED,
        )
        return [
            ("fig13", "quick", fig13_joint_power.run, fig_spec),
            ("datacenter_scale", "quick", datacenter_scale.run,
             dict(arities=(4,), duration_s=4.0, seed=SEED)),
        ]
    return [
        ("fig13", "default", fig13_joint_power.run, dict(seed=SEED)),
        ("datacenter_scale", "default", datacenter_scale.run, dict(seed=SEED)),
        ("fig13", "fine-grain", fig13_joint_power.run,
         dict(params=FINE_PARAMS, seed=SEED)),
        ("datacenter_scale", "fine-grain", datacenter_scale.run,
         dict(duration_s=1.0, seed=SEED)),
    ]


def mode_run(mode: str, spec: dict) -> tuple[dict, dict]:
    """(driver spec, executor-context kwargs) of one configuration."""
    if mode != "multipoint":
        return spec, dict(cache=False, batch=mode == "fused")
    mp_spec = dict(spec)
    if "params" in mp_spec:
        mp_spec["params"] = dataclasses.replace(
            mp_spec["params"], server_engine="multipoint"
        )
    else:
        mp_spec["server_engine"] = "multipoint"
    return mp_spec, dict(cache=False, batch=True)


def run_mode(run_fn, spec: dict, ctx_kwargs: dict, jobs: int):
    """One timed end-to-end driver run under a fresh executor context."""
    with use_context(ExecContext(jobs=jobs, **ctx_kwargs)):
        t0 = time.perf_counter()
        result = run_fn(**spec)
        elapsed = time.perf_counter() - t0
    return result, elapsed


def dispatch_counts() -> dict:
    """Scalar tasks vs fused dispatch units for the full fig13 grid —
    the structural IPC reduction, independent of machine timing."""
    tasks = fig13_joint_power.build_tasks(seed=SEED)
    units = _fuse_round(tasks, list(range(len(tasks))), set())
    return {
        "fig13_tasks": len(tasks),
        "fig13_dispatches_fused": len(units),
        "dispatch_reduction": len(tasks) / len(units),
    }


def _spread(samples: list[float]) -> dict:
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "runs_s": samples,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=JOBS)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: reduced grids, one repeat"
    )
    parser.add_argument("--out", default="BENCH_joint.json")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else REPEATS

    rows = []
    for name, grid, run_fn, spec in grids(args.quick):
        times: dict[str, list[float]] = {mode: [] for mode in MODES}
        digest = n_rows = None
        for _ in range(repeats):
            for mode in MODES:
                mode_spec, ctx_kwargs = mode_run(mode, spec)
                result, elapsed = run_mode(run_fn, mode_spec, ctx_kwargs, args.jobs)
                got = rows_digest(result)
                if digest is None:
                    digest, n_rows = got, len(result.rows)
                elif got != digest:
                    raise AssertionError(
                        f"{name}/{grid}: {mode} rows diverged ({got[:16]} != "
                        f"{digest[:16]}) — every dispatch mode and server "
                        "engine must be bit-identical"
                    )
                times[mode].append(elapsed)
        med = {mode: statistics.median(times[mode]) for mode in MODES}
        row = {
            "experiment": name,
            "grid": grid,
            "n_rows": n_rows,
            **{mode: _spread(times[mode]) for mode in MODES},
            "fused_speedup": med["scalar"] / med["fused"],
            "multipoint_speedup": med["scalar"] / med["multipoint"],
            "rows_digest": digest,
            "bit_identical": True,
        }
        print(
            f"{name}/{grid}: scalar {med['scalar']:7.2f}s  fused "
            f"{med['fused']:7.2f}s ({row['fused_speedup']:.2f}x)  multipoint "
            f"{med['multipoint']:7.2f}s ({row['multipoint_speedup']:.2f}x)  "
            f"median of {repeats}, digest ok"
        )
        rows.append(row)

    payload = {
        "benchmark": "bench_joint",
        "jobs": args.jobs,
        "repeats": repeats,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "dispatch": dispatch_counts(),
        "results": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
