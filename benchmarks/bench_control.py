"""Benchmark: churn-proportional control-plane epochs (delta consolidation).

Measures the controller's per-epoch *decision* latency — one
consolidation solve — for the full re-solve engine versus the
warm-started :class:`~repro.consolidation.delta.DeltaConsolidator`, as
a function of fat-tree arity and background-flow churn rate.  The point
of the delta engine is that epoch cost scales with **churn** (flows
arrived + departed per epoch), not with the flow count; a full solve
re-packs every flow every epoch regardless.

Churn is generated with ``FlowChurnModel(demand_jitter=0)`` at constant
utilization, so surviving flows keep their exact demands and the churn
rate is purely the death rate ``1 / mean_lifetime_epochs`` — the knob
this benchmark sweeps.  Query flows persist across epochs, as in the
paper's workload.

Also verifies, per arity, the golden-equivalence contract: the delta
engine at ``drift_bound=0`` must produce results bit-identical (SHA-256
over routing/subnet/objective) to the full engine on the same epoch
sequence.

Each arity also times the *cold* full solve — a fresh consolidator on
a content-identical topology whose path sets are not yet compiled, the
worst-case control-plane tail the delta engine falls back to — as the
median of ``REPEATS`` runs, next to the same consolidator's warm repeat
solve.

Run as a module (repository root on ``sys.path``, ``src`` on
``PYTHONPATH``)::

    PYTHONPATH=src python -m benchmarks.bench_control --k 8 16 32
    PYTHONPATH=src python -m benchmarks.bench_control --quick  # CI smoke

Emits ``BENCH_control.json``.  Target: at k=16+ under 10 % churn the
delta engine's steady-state epoch decision is >= 5x faster than the
full solve (and stays sub-second at k=32).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import time

from repro.consolidation import DeltaConsolidator, GreedyConsolidator
from repro.flows.dynamics import FlowChurnModel
from repro.netfast import clear_index_registry
from repro.topology.fattree import FatTree
from repro.workloads.search import SearchWorkload

#: Per-query demand (bit/s) keeping the aggregator's access-link fan-in
#: ((n_hosts - 1) reply flows + background) routable at every
#: benchmarked arity up to k=32.
QUERY_DEMAND_BPS = {4: 10e6, 6: 10e6, 8: 4e6, 10: 2e6, 12: 1e6, 14: 7e5, 16: 5e5, 32: 5e4}

SCALE_FACTOR = 2.0
BACKGROUND_UTILIZATION = 0.2
SEED = 1
DRIFT_BOUND = 0.5
N_EQUIVALENCE_EPOCHS = 3
#: Cold/warm full-solve repeats per arity.
REPEATS = 3


def result_digest(result) -> str:
    """SHA-256 over everything a consolidation decision commits."""
    payload = {
        "routing": sorted((fid, list(p)) for fid, p in result.routing.items()),
        "switches_on": sorted(result.subnet.switches_on),
        "links_on": sorted(map(list, result.subnet.links_on)),
        "scale_factor": result.scale_factor,
        "objective_watts": result.objective_watts,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def epoch_traffic(k: int, churn_rate: float, n_epochs: int):
    """Pre-generated per-epoch TrafficSets at one (arity, churn) point."""
    ft = FatTree(k)
    demand = QUERY_DEMAND_BPS.get(k, 5e5)
    query = SearchWorkload(ft, query_demand_bps=demand).query_flows()
    churn = FlowChurnModel(
        ft,
        mean_lifetime_epochs=1.0 / churn_rate,
        demand_jitter=0.0,
        seed_or_rng=SEED,
    )
    epochs = [
        churn.advance(BACKGROUND_UTILIZATION).merged_with(query)
        for _ in range(n_epochs)
    ]
    return ft, epochs


def bench_point(ft, epochs, churn_rate: float) -> dict:
    """Time full-solve vs delta epochs over one pre-generated sequence."""
    full = GreedyConsolidator(ft)
    full_times, full_results = [], []
    for traffic in epochs:
        t0 = time.perf_counter()
        res = full.consolidate(traffic, SCALE_FACTOR)
        full_times.append(time.perf_counter() - t0)
        full_results.append(res)

    delta = DeltaConsolidator(ft, drift_bound=DRIFT_BOUND)
    delta_times, delta_stats, max_obj_drift = [], [], 0.0
    for traffic, full_res in zip(epochs, full_results):
        t0 = time.perf_counter()
        res = delta.consolidate(traffic, SCALE_FACTOR)
        delta_times.append(time.perf_counter() - t0)
        delta_stats.append(delta.last_stats)
        base = max(full_res.objective_watts, 1e-12)
        max_obj_drift = max(max_obj_drift, (res.objective_watts - full_res.objective_watts) / base)

    # Golden equivalence: drift_bound=0 is bit-identical to full.
    delta0 = DeltaConsolidator(ft, drift_bound=0.0)
    for traffic, full_res in zip(epochs[:N_EQUIVALENCE_EPOCHS], full_results):
        res0 = delta0.consolidate(traffic, SCALE_FACTOR)
        if result_digest(res0) != result_digest(full_res):
            raise AssertionError(
                f"drift_bound=0 delta result diverged from the full solve "
                f"(k-ary topology with {len(traffic)} flows)"
            )

    # Steady state excludes the cold first epoch (index/path-cache build
    # for both engines, mandatory full solve for the delta engine).
    steady_full = full_times[1:]
    steady_delta = delta_times[1:]
    n_delta = sum(1 for s in delta_stats if s.mode == "delta")
    churned = [s.n_churned for s in delta_stats[1:]]
    full_mean = sum(steady_full) / len(steady_full)
    delta_mean = sum(steady_delta) / len(steady_delta)
    return {
        "churn_rate": churn_rate,
        "n_flows": len(epochs[0]),
        "n_epochs": len(epochs),
        "full_epoch_s": full_mean,
        "delta_epoch_s": delta_mean,
        "speedup": full_mean / delta_mean,
        "delta_epoch_fraction": n_delta / len(epochs),
        "mean_churned_flows": sum(churned) / max(1, len(churned)),
        "fallbacks": delta.counters()["fallbacks"],
        "max_objective_drift": max_obj_drift,
        "drift_bound": DRIFT_BOUND,
        "equivalence_epochs_checked": min(N_EQUIVALENCE_EPOCHS, len(epochs)),
    }


def _cold_copy(ft):
    """A content-identical topology with every process-wide warm state
    dropped: the identity-keyed index map never sees the new object and
    the content registry is cleared, so the next solve pays the full
    one-time path-set compilation — the cold tail this block measures.
    (The delta sweeps earlier in the same bench process leave the
    original ``ft``'s compiled index warm; timing against it would
    understate the cold solve by an order of magnitude.)"""
    clear_index_registry()
    return FatTree(ft.k)


def _spread(runs: list[float]) -> dict:
    return {
        "median_s": statistics.median(runs),
        "min_s": min(runs),
        "max_s": max(runs),
        "runs_s": runs,
    }


def bench_cold(ft, traffic, repeats: int) -> dict:
    """Cold vs warm full solve of one epoch.

    Each repeat solves ``traffic`` with a fresh consolidator on a cold
    copy of ``ft`` (``cold_full_s``: index, path sets and pair caches
    all built inside the timed solve), then solves it again with the
    same consolidator (``warm_full_s``: the steady-state full-epoch
    figure).  Every repeat must commit the same result.
    """
    cold, warm, digests = [], [], set()
    for _ in range(repeats):
        cons = GreedyConsolidator(_cold_copy(ft))
        gc.collect()
        t0 = time.perf_counter()
        result = cons.consolidate(traffic, SCALE_FACTOR)
        cold.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cons.consolidate(traffic, SCALE_FACTOR)
        warm.append(time.perf_counter() - t0)
        digests.add(result_digest(result))
        # Free this copy's index before the next one compiles its own.
        del cons
    if len(digests) != 1:
        raise AssertionError("cold full solves disagree across repeats")
    return {
        "n_flows": len(traffic),
        "repeats": repeats,
        "cold_full_s": _spread(cold),
        "warm_full_s": _spread(warm),
    }


def bench_arity(k: int, churn_rates, n_epochs: int) -> dict:
    row: dict = {"k": k, "n_hosts": FatTree(k).n_hosts, "points": []}
    for rate in churn_rates:
        ft, epochs = epoch_traffic(k, rate, n_epochs)
        point = bench_point(ft, epochs, rate)
        row["points"].append(point)
        print(
            f"  k={k} churn={rate:.0%}: full={point['full_epoch_s'] * 1e3:8.1f}ms "
            f"delta={point['delta_epoch_s'] * 1e3:7.1f}ms "
            f"speedup={point['speedup']:5.1f}x "
            f"(churned~{point['mean_churned_flows']:.0f}/{point['n_flows']} flows, "
            f"{point['delta_epoch_fraction']:.0%} delta epochs)"
        )
    ft, epochs = epoch_traffic(k, churn_rates[0], 1)
    row["full_solve"] = cold = bench_cold(ft, epochs[0], REPEATS)
    print(
        f"  k={k} full solve: cold={cold['cold_full_s']['median_s']:7.2f}s "
        f"warm={cold['warm_full_s']['median_s']:7.2f}s (median of {REPEATS})"
    )
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", default=[8, 16])
    parser.add_argument("--churn", type=float, nargs="+", default=[0.05, 0.10, 0.25])
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: k=8 only, 8 epochs"
    )
    parser.add_argument("--out", default="BENCH_control.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.k = [8]
        args.epochs = 8

    results = []
    for k in args.k:
        print(f"k={k}:")
        results.append(bench_arity(k, args.churn, args.epochs))

    payload = {
        "benchmark": "bench_control",
        "scale_factor": SCALE_FACTOR,
        "background_utilization": BACKGROUND_UTILIZATION,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    # Headline acceptance target: >= 5x at k=16+ under ~10 % churn.
    for row in results:
        if row["k"] < 16:
            continue
        for point in row["points"]:
            if abs(point["churn_rate"] - 0.10) < 1e-9 and point["speedup"] < 5.0:
                print(
                    f"WARNING: k={row['k']} @ 10% churn speedup "
                    f"{point['speedup']:.1f}x is below the 5x target"
                )


if __name__ == "__main__":
    main()
