"""Micro-benchmarks for the server DES.

Times fig12-style server-simulation points — a multi-core server under
a VP governor at a given (utilization, latency constraint) — on the
path production prices a single point with: a one-point
:func:`~repro.simfast.run_multipoint_simulation` (lockstep) run.
Emits a machine-readable ``BENCH_server.json`` with wall times,
events/s and decisions/s.

Run as a module (the repository root on ``sys.path`` and ``src`` on
``PYTHONPATH``)::

    PYTHONPATH=src python -m benchmarks.bench_server --duration 60
    PYTHONPATH=src python -m benchmarks.bench_server --quick --repeats 1

Each point is timed cold (first run in the process — it pays VP-table
construction, which subsequent same-process runs share through
:func:`repro.simfast.shared_table_engine`) and warm (best of
``--repeats`` further runs), asserting run-to-run identical results.
Equivalence is the test suite's job: ``tests/test_multipoint.py``
holds these points, at the ``--quick`` shape, to the event-heap
reference loop, and ``tests/test_simfast_equivalence.py`` holds the
tables to the mixture-evaluation oracle.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.policies import (
    EpronsServerGovernor,
    RubikGovernor,
    RubikPlusGovernor,
)
from repro.server.dvfs import XEON_LADDER
from repro.server.service import default_service_model
from repro.sim.runner import ServerSimConfig
from repro.simfast import (
    MultipointPoint,
    clear_shared_engines,
    run_multipoint_simulation,
)

GOVERNORS = {
    "rubik": RubikGovernor,
    "rubik+": RubikPlusGovernor,
    "eprons-server": EpronsServerGovernor,
}

#: Fig. 12-style operating points: (governor, utilization, constraint).
DEFAULT_POINTS = (
    ("rubik", 0.3, 30e-3),
    ("eprons-server", 0.3, 30e-3),
    ("eprons-server", 0.5, 30e-3),
)


def point_config(utilization, constraint_s, duration_s, n_cores, seed):
    """The benchmarked :class:`ServerSimConfig` of one point."""
    return ServerSimConfig(
        utilization=utilization,
        latency_constraint_s=constraint_s,
        n_cores=n_cores,
        duration_s=duration_s,
        warmup_s=min(duration_s / 3.0, 20.0),
        seed=seed,
    )


def governor_factory(name, service_model):
    """A fresh-governor factory for a :data:`GOVERNORS` name."""
    governor_cls = GOVERNORS[name]

    def factory():
        return governor_cls(service_model, XEON_LADDER)

    return factory


def _run_point(factory, service_model, config):
    """One instrumented one-point lockstep run:
    (result, n_events, n_decisions)."""
    stats: dict = {}
    (result,) = run_multipoint_simulation(
        service_model,
        [MultipointPoint(config=config, governor_factory=factory)],
        stats_out=stats,
    )
    return result, stats["n_events"], stats["n_decisions"]


def bench_point(name, utilization, constraint_s, duration_s, n_cores, seed, repeats):
    service_model = default_service_model()
    config = point_config(utilization, constraint_s, duration_s, n_cores, seed)
    factory = governor_factory(name, service_model)
    # Charge the cold run the full table build, as a fresh worker
    # process would pay it.
    clear_shared_engines()
    t0 = time.perf_counter()
    result, n_events, n_decisions = _run_point(factory, service_model, config)
    t_cold = time.perf_counter() - t0
    t_warm = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        again, n_events, n_decisions = _run_point(factory, service_model, config)
        t_warm = min(t_warm, time.perf_counter() - t0)
        if again != result:
            raise AssertionError(f"{name}: run-to-run mismatch")
    return {
        "governor": name,
        "utilization": utilization,
        "constraint_ms": constraint_s * 1e3,
        "n_cores": n_cores,
        "duration_s": duration_s,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "n_events": n_events,
        "n_decisions": n_decisions,
        "events_per_s_warm": n_events / t_warm,
        "decisions_per_s_warm": n_decisions / t_warm,
        "cpu_power_w": result.cpu_power_watts,
        "p95_ms": result.total_latency.p95 * 1e3,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--n-cores", type=int, default=2)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="single short point (CI smoke): eprons-server only",
    )
    parser.add_argument("--out", default="BENCH_server.json")
    args = parser.parse_args(argv)

    points = DEFAULT_POINTS[1:2] if args.quick else DEFAULT_POINTS
    duration = min(args.duration, 12.0) if args.quick else args.duration

    results = []
    for name, utilization, constraint_s in points:
        row = bench_point(
            name, utilization, constraint_s, duration, args.n_cores, args.seed, args.repeats,
        )
        results.append(row)
        print(
            f"{name} u={utilization:.0%} L={constraint_s * 1e3:.0f}ms: "
            f"cold={row['cold_s']:.2f}s warm={row['warm_s']:.2f}s "
            f"events/s={row['events_per_s_warm']:,.0f} "
            f"decisions/s={row['decisions_per_s_warm']:,.0f}"
        )

    payload = {
        "benchmark": "bench_server",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
