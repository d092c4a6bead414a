"""Fig. 12 — server power management comparison (EPRONS-Server vs
Rubik, Rubik+, TimeTrader, no power management).

(a) CPU power vs server utilization at a 30 ms constraint;
(b) CPU power vs request tail-latency constraint at 30 % utilization;
(c) EPRONS-Server power across (utilization, constraint).

The network is not power-managed here (the paper fixes 20 % background
on the full topology); per-request network latencies come from the
routed network model, rebuilt per point inside the ``server-sim`` op so
every (governor, load, constraint) cell is an independent, cacheable
unit of sweep work.
"""

from __future__ import annotations

from ..exec import SweepTask, run_sweep
from ..units import to_ms
from .runner import ExperimentResult, register

__all__ = ["run_utilization_sweep", "run_constraint_sweep", "run_heatmap", "GOVERNORS"]

GOVERNORS = ("no-pm", "timetrader", "rubik", "rubik+", "eprons-server")

DEFAULT_UTILIZATIONS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_CONSTRAINTS_MS = (18.0, 19.0, 20.0, 22.0, 25.0, 28.0, 31.0, 34.0, 40.0)


def _scaled_cpu_power(result, n_cores_simulated: int, n_cores_server: int = 12) -> float:
    """Scale simulated per-core power to the paper's 12-core CPU."""
    return result.cpu_power_watts / n_cores_simulated * n_cores_server


def _sim_task(
    tag, governor, utilization, constraint_s, background, duration_s, n_cores, seed,
):
    return SweepTask.make(
        "server-sim",
        tag=tag,
        arity=4,
        constraint_ms=constraint_s * 1e3,
        governor=governor,
        utilization=utilization,
        background=background,
        duration_s=duration_s,
        warmup_s=min(duration_s / 3.0, 20.0),
        n_cores=n_cores,
        seed=seed,
    )


def run_utilization_sweep(
    utilizations=DEFAULT_UTILIZATIONS,
    governors=GOVERNORS,
    constraint_s: float = 30e-3,
    background: float = 0.2,
    duration_s: float = 60.0,
    n_cores: int = 2,
    seed: int = 3,
) -> ExperimentResult:
    """Fig. 12(a): CPU power vs utilization per governor."""
    result = ExperimentResult(
        figure="fig12a",
        title="CPU power vs server utilization (30 ms constraint)",
        columns=("governor", "utilization_pct", "cpu_w_12core", "p95_ms", "sla_met"),
        notes=(
            "Paper ordering: EPRONS-Server < Rubik+ < TimeTrader < Rubik "
            "(except very low load) < no-PM."
        ),
    )
    tasks = [
        _sim_task(
            (gov, u), gov, u, constraint_s, background, duration_s, n_cores, seed
        )
        for gov in governors
        for u in utilizations
    ]
    for outcome in run_sweep(tasks):
        gov, u = outcome.task.tag
        r = outcome.unwrap()
        result.add(
            gov,
            round(u * 100.0, 1),
            _scaled_cpu_power(r, n_cores),
            to_ms(r.total_latency.p95),
            r.meets_sla,
        )
    return result


def run_constraint_sweep(
    constraints_ms=DEFAULT_CONSTRAINTS_MS,
    governors=GOVERNORS,
    utilization: float = 0.3,
    background: float = 0.2,
    duration_s: float = 60.0,
    n_cores: int = 2,
    seed: int = 3,
) -> ExperimentResult:
    """Fig. 12(b): CPU power vs tail-latency constraint at 30% load."""
    result = ExperimentResult(
        figure="fig12b",
        title="CPU power vs request tail-latency constraint (30% utilization)",
        columns=("governor", "constraint_ms", "cpu_w_12core", "p95_ms", "sla_met"),
        notes=(
            "Paper: no scheme meets constraints below ~18 ms; above ~19 ms "
            "EPRONS-Server consistently uses the least power."
        ),
    )
    tasks = [
        _sim_task(
            (gov, L_ms), gov, utilization, L_ms * 1e-3, background, duration_s, n_cores,
            seed,
        )
        for L_ms in constraints_ms
        for gov in governors
    ]
    for outcome in run_sweep(tasks):
        gov, L_ms = outcome.task.tag
        r = outcome.unwrap()
        result.add(
            gov,
            L_ms,
            _scaled_cpu_power(r, n_cores),
            to_ms(r.total_latency.p95),
            r.meets_sla,
        )
    return result


def run_heatmap(
    utilizations=DEFAULT_UTILIZATIONS,
    constraints_ms=(20.0, 25.0, 30.0, 35.0, 40.0),
    background: float = 0.2,
    duration_s: float = 40.0,
    n_cores: int = 2,
    seed: int = 3,
) -> ExperimentResult:
    """Fig. 12(c): EPRONS-Server power across (utilization, constraint)."""
    result = ExperimentResult(
        figure="fig12c",
        title="EPRONS-Server CPU power across utilization and constraint",
        columns=("utilization_pct", "constraint_ms", "cpu_w_12core", "sla_met"),
        notes="Paper: power falls steeply as the constraint loosens at small values.",
    )
    tasks = [
        _sim_task(
            (u, L_ms), "eprons-server", u, L_ms * 1e-3, background, duration_s, n_cores,
            seed,
        )
        for L_ms in constraints_ms
        for u in utilizations
    ]
    for outcome in run_sweep(tasks):
        u, L_ms = outcome.task.tag
        r = outcome.unwrap()
        result.add(
            round(u * 100.0, 1),
            L_ms,
            _scaled_cpu_power(r, n_cores),
            r.meets_sla,
        )
    return result


@register("fig12a")
def default_a() -> ExperimentResult:
    return run_utilization_sweep()


@register("fig12b")
def default_b() -> ExperimentResult:
    return run_constraint_sweep()


@register("fig12c")
def default_c() -> ExperimentResult:
    return run_heatmap()
