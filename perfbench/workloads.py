"""The benchmark's three workloads.

Each workload has a ``setup(seed, jobs)`` that imports the program and
generates every input, and a ``measure(state)`` that runs the measured
phase and returns a plain dict:

* ``windows`` — ``(start, end)`` ``perf_counter`` intervals whose
  summed length is ``wall_s``;
* ``cpu_s`` — CPU seconds of this process and its reaped children over
  the windows;
* ``op_s`` — per-operation latencies (a sweep task's
  ``TaskOutcome.duration_s``; a controller epoch's ``run_epoch``);
* ``cold_s`` — latency of the first result from a cold start (a
  sweep's whole grid in a fresh process with an empty cache; the
  median first ``run_epoch`` of fresh controllers on an uncompiled
  fabric);
* ``statuses`` — one status per attempted operation (``ok``,
  ``infeasible``, ``error``);
* ``digest`` — SHA-256 over the outputs; ``checks`` — failed output
  checks; ``layers`` — counters the program itself exposes.

All program imports happen inside ``setup`` so that their cost is part
of ``setup_s``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from time import perf_counter

from bench_stats import digest

#: Seed each figure script (or the churn benchmark) uses by default.
DEFAULT_SEEDS = {"fig13-grid": 1, "fig15-diurnal": 4, "ctrl-k16-churn": 1}

#: Worker processes per sweep (the controller loop is single-threaded).
JOBS = {"fig13-grid": 2, "fig15-diurnal": 1, "ctrl-k16-churn": 1}

# Controller loop sizing: k=16 fat tree, 5e5 bit/s query flows plus 20 %
# background elephants of mean lifetime 10 epochs (10 % churn), 20
# clean stats polls per epoch, 40 steady epochs after the first.
CTRL_ARITY = 16
CTRL_QUERY_DEMAND_BPS = 5e5
CTRL_BACKGROUND = 0.2
CTRL_LIFETIME_EPOCHS = 10.0
CTRL_SCALE_FACTOR = 2.0
CTRL_POLLS = 20
CTRL_STEADY_EPOCHS = 40
CTRL_COLD_REPEATS = 5


def cpu_now() -> float:
    """User + system CPU seconds of this process and reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Highest RSS of this process or any reaped child, in MiB."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def canon(value):
    """Plain-Python form of result rows (NumPy scalars unwrapped)."""
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if hasattr(value, "item"):
        return canon(value.item())
    return float(value)


# -- sweeps --------------------------------------------------------------------


def _setup_sweep(module_name: str, seed: int, jobs: int, cache_dir: str) -> dict:
    import importlib

    from repro.exec import ExecContext, set_context

    module = importlib.import_module(module_name)
    set_context(ExecContext(jobs=jobs, cache_dir=cache_dir))
    return {"module": module, "seed": seed, "jobs": jobs}


def _run_captured(state: dict, call):
    """Run a figure script, capturing the outcomes of its one sweep."""
    module = state["module"]
    inner = module.run_sweep
    sweeps = []

    def capture(tasks, *args, **kwargs):
        t0 = perf_counter()
        outcomes = inner(tasks, *args, **kwargs)
        sweeps.append((perf_counter() - t0, outcomes))
        return outcomes

    module.run_sweep = capture
    try:
        c0 = cpu_now()
        t0 = perf_counter()
        result = call()
        t1 = perf_counter()
        cpu = cpu_now() - c0
    finally:
        module.run_sweep = inner
    if len(sweeps) != 1:
        raise RuntimeError(f"expected one sweep, the figure ran {len(sweeps)}")
    sweep_wall, outcomes = sweeps[0]
    task_s = sum(o.duration_s for o in outcomes)
    return result, {
        "windows": [(t0, t1)],
        "cpu_s": cpu,
        "op_s": [o.duration_s for o in outcomes],
        # A sweep's first result arrives with its last: the figure
        # script returns the whole grid from one cold process.
        "cold_s": t1 - t0,
        "statuses": [o.status for o in outcomes],
        "layers": {
            "exec.tasks": len(outcomes),
            "exec.errors": sum(1 for o in outcomes if o.status in ("error", "timeout")),
            "exec.infeasible": sum(1 for o in outcomes if o.infeasible),
            "exec.task_s": task_s,
            "exec.idle_frac": 1.0 - task_s / (state["jobs"] * sweep_wall),
        },
        "outcomes": outcomes,
    }


def _finite_rows(rows) -> list[str]:
    bad = [r for r in rows if any(isinstance(v, float) and not math.isfinite(v) for v in r)]
    return [f"{len(bad)} rows carry a non-finite value"] if bad else []


def setup_fig13(seed: int, jobs: int, cache_dir: str) -> dict:
    return _setup_sweep("repro.experiments.fig13_joint_power", seed, jobs, cache_dir)


def measure_fig13(state: dict) -> dict:
    result, out = _run_captured(state, lambda: state["module"].run(seed=state["seed"]))
    rows = canon(result.rows)
    infeasible = sorted(canon(o.task.tag) for o in out.pop("outcomes") if o.infeasible)
    out["digest"] = digest((rows, infeasible))
    out["checks"] = _finite_rows(rows)
    if len(rows) + len(infeasible) != len(out["statuses"]):
        out["checks"].append(
            f"{len(rows)} rows + {len(infeasible)} infeasible cells != {len(out['statuses'])} tasks"
        )
    return out


def setup_fig15(seed: int, jobs: int, cache_dir: str) -> dict:
    return _setup_sweep("repro.experiments.fig15_diurnal", seed, jobs, cache_dir)


def measure_fig15(state: dict) -> dict:
    (series, summary), out = _run_captured(
        state, lambda: state["module"].run(trace_seed=state["seed"])
    )
    out.pop("outcomes")
    rows = (canon(series.rows), canon(summary.rows))
    out["digest"] = digest(rows)
    out["checks"] = _finite_rows(rows[0]) + _finite_rows(rows[1])
    if not series.rows or not summary.rows:
        out["checks"].append("fig15 produced an empty table")
    return out


# -- controller loop -------------------------------------------------------------


def setup_ctrl(seed: int, jobs: int, cache_dir: str) -> dict:
    from repro.flows.dynamics import FlowChurnModel
    from repro.topology.fattree import FatTree
    from repro.workloads.search import SearchWorkload

    # Imported here so their cost lands in set-up, not in the cold phase.
    import repro.consolidation  # noqa: F401
    import repro.control  # noqa: F401
    import repro.telemetry  # noqa: F401

    ft = FatTree(CTRL_ARITY)
    workload = SearchWorkload(ft, query_demand_bps=CTRL_QUERY_DEMAND_BPS)
    query = workload.query_flows()
    churn = FlowChurnModel(
        ft,
        mean_lifetime_epochs=CTRL_LIFETIME_EPOCHS,
        demand_jitter=0.0,
        seed_or_rng=seed,
    )
    epochs = [
        churn.advance(CTRL_BACKGROUND).merged_with(query)
        for _ in range(CTRL_STEADY_EPOCHS + 1)
    ]
    return {"epochs": epochs, "budget_s": workload.network_budget_s}


def _fresh_controller(budget_s: float):
    """A new controller on a content-identical, uncompiled k=16 fabric."""
    from repro.consolidation import GreedyConsolidator
    from repro.control import SdnController, SlaGuardrail, TrafficMonitor
    from repro.netfast import clear_index_registry
    from repro.telemetry import DegradedStatsCollector, TelemetryProfile
    from repro.topology.fattree import FatTree

    clear_index_registry()
    topo = FatTree(CTRL_ARITY)
    controller = SdnController(
        GreedyConsolidator(topo),
        scale_factor=CTRL_SCALE_FACTOR,
        mode="delta",
        guardrail=SlaGuardrail(budget_s),
        monitor=TrafficMonitor(window=CTRL_POLLS),
    )
    return controller, DegradedStatsCollector(topo, TelemetryProfile())


def committed_state_problems(controller) -> list[str]:
    """Routed paths that cross a switch or link the subnet has off."""
    from repro.topology.graph import canonical_link

    subnet = controller.current_subnet
    topo = subnet.topology
    problems = []
    for fid, path in controller.current_routing.items():
        for u, v in zip(path[:-1], path[1:]):
            if canonical_link(u, v) not in subnet.links_on:
                problems.append(f"epoch {controller.epoch - 1}: {fid} uses dark link {u}-{v}")
                break
            if topo.is_switch(v) and v not in subnet.switches_on:
                problems.append(f"epoch {controller.epoch - 1}: {fid} uses dark switch {v}")
                break
    return problems


def _state_digest(controller) -> str:
    subnet = controller.current_subnet
    return digest(
        (
            sorted(controller.current_routing.items()),
            sorted(subnet.switches_on),
            sorted(subnet.links_on),
        )
    )


def _cold_epoch(state: dict):
    """Time the first epoch of a fresh controller; returns
    ``(seconds, controller, collector)``."""
    controller, collector = _fresh_controller(state["budget_s"])
    collector.feed(controller.monitor, 0, state["epochs"][0], n_polls=CTRL_POLLS)
    # Every repeat starts from a collected heap, so no repeat pays for
    # the garbage of the one before.
    gc.collect()
    t0 = perf_counter()
    controller.run_epoch(state["epochs"][0])
    return perf_counter() - t0, controller, collector


def measure_ctrl(state: dict) -> dict:
    from repro.errors import InfeasibleError
    from repro.netfast import clear_index_registry

    epochs = state["epochs"]
    n_steady = len(epochs) - 1
    # Cold repeats are spread over the run (before the first steady
    # epoch, between steady epochs, after the last) so that they sample
    # the machine at different times, not one burst.
    cold_after = {round(i * n_steady / (CTRL_COLD_REPEATS - 1)) for i in range(1, CTRL_COLD_REPEATS)}
    cold_s, controller, collector = _cold_epoch(state)
    cold, cold_digests = [cold_s], [_state_digest(controller)]
    checks = committed_state_problems(controller)
    statuses = ["ok"]
    chain = [cold_digests[0]]

    windows, op_s, cpu = [], [], 0.0
    for e in range(1, n_steady + 1):
        c0 = cpu_now()
        t0 = perf_counter()
        collector.feed(controller.monitor, e, epochs[e], n_polls=CTRL_POLLS)
        t1 = perf_counter()
        try:
            committed = controller.run_epoch(epochs[e]).committed
        except InfeasibleError:
            committed = False
        t2 = perf_counter()
        cpu += cpu_now() - c0
        windows.append((t0, t2))
        op_s.append(t2 - t1)
        statuses.append("ok" if committed else "error")
        if committed:
            checks += committed_state_problems(controller)
        chain.append(digest((chain[-1], _state_digest(controller))))
        if e in cold_after:
            cold_s, other, _ = _cold_epoch(state)
            cold.append(cold_s)
            cold_digests.append(_state_digest(other))
            statuses.append("ok")
            # Drop the repeat's index so the steady controller runs on
            # the same heap as before it.
            del other
            clear_index_registry()
            gc.collect()

    if len(set(cold_digests)) != 1:
        checks.append(f"cold repeats disagree: {sorted(set(cold_digests))}")
    delta = controller.delta.counters()
    accounting = collector.accounting()
    return {
        "windows": windows,
        "cpu_s": cpu,
        "op_s": op_s,
        "cold_s": statistics.median(cold),
        "cold_repeats_s": cold,
        "statuses": statuses,
        "digest": digest((chain[-1], repr(controller.transition_energy_joules))),
        "checks": checks,
        "layers": {
            "consolidation.delta_frac": delta["delta_epochs"] / max(delta["epochs"], 1),
            "consolidation.repacked_flows": delta["repacked_flows"],
            "telemetry.polls": accounting["polls_total"],
        },
    }


WORKLOADS = {
    "fig13-grid": (setup_fig13, measure_fig13),
    "fig15-diurnal": (setup_fig15, measure_fig15),
    "ctrl-k16-churn": (setup_ctrl, measure_ctrl),
}
