"""Does the joint saving survive a bigger fabric?

The paper evaluates on a k=4 fat-tree (16 servers, 20 switches).  The
model is topology-generic, so this experiment re-runs the joint
optimization on k=4 and k=6 (54 servers, 45 switches) and checks that
the EPRONS decisions and savings generalize: the minimal subnet still
wins at light background, and the relative total-power saving vs no
power management stays in the same band as the fabric grows.

Every (arity, aggregation level) evaluation is an independent
``joint-eval`` sweep task; the per-arity best-level selection happens
on the assembled outcomes.
"""

from __future__ import annotations

from ..core.joint import JointSimParams
from ..exec import SweepTask, run_sweep
from ..topology.aggregation import AGGREGATION_LEVELS
from ..topology.fattree import FatTree
from .runner import ExperimentResult, register

__all__ = ["build_tasks", "run"]


def build_tasks(
    arities=(4, 6),
    background: float = 0.2,
    utilization: float = 0.3,
    duration_s: float = 8.0,
    seed: int = 1,
    server_engine: str | None = None,
    consolidation_engine: str = "indexed",
) -> list[SweepTask]:
    """The datacenter-scale sweep grid as tasks (also used by
    bench_joint to count fused dispatch units).  ``server_engine=
    "multipoint"`` runs each arity's fused batch as one lockstep DES
    pass (bit-identical per point).  ``consolidation_engine`` selects
    the network solve engine; the ``"indexed"`` default stays out of
    the spec so cache keys and fused grouping are unchanged."""
    extra = (
        {} if consolidation_engine == "indexed"
        else {"consolidation_engine": consolidation_engine}
    )
    tasks = []
    for k in arities:
        ft = FatTree(k)
        params = JointSimParams(
            n_servers=ft.n_hosts,
            sim_cores=1,
            duration_s=duration_s,
            warmup_s=min(2.0, duration_s / 4),
            seed=seed,
            server_engine=server_engine,
        )
        for level in AGGREGATION_LEVELS:
            tasks.append(
                SweepTask.make(
                    "joint-eval",
                    tag=(k, "eprons", level),
                    arity=k,
                    constraint_ms=30.0,
                    background=background,
                    level=level,
                    utilization=utilization,
                    governor="eprons-server",
                    params=params,
                    traffic_seed=seed,
                    **extra,
                )
            )
        tasks.append(
            SweepTask.make(
                "joint-eval",
                tag=(k, "no-pm", 0),
                arity=k,
                constraint_ms=30.0,
                background=background,
                level=0,
                utilization=utilization,
                governor="no-pm",
                params=params,
                traffic_seed=seed,
                **extra,
            )
        )
    return tasks


def run(
    arities=(4, 6),
    background: float = 0.2,
    utilization: float = 0.3,
    duration_s: float = 8.0,
    seed: int = 1,
    server_engine: str | None = None,
    consolidation_engine: str = "indexed",
) -> ExperimentResult:
    result = ExperimentResult(
        figure="datacenter-scale",
        title="Joint savings across fat-tree arities (k=4 vs k=6)",
        columns=(
            "k",
            "servers",
            "switches",
            "best_level",
            "eprons_total_w",
            "no_pm_total_w",
            "saving_pct",
            "sla_met",
        ),
        notes=(
            "The EPRONS decision structure (minimal feasible subnet + "
            "average-VP DVFS) and the relative saving carry over as the "
            "fabric grows."
        ),
    )
    trees = {k: FatTree(k) for k in arities}
    tasks = build_tasks(
        arities, background, utilization, duration_s, seed, server_engine,
        consolidation_engine,
    )

    # Reassemble per arity: cheapest SLA-meeting level vs the no-PM baseline.
    best: dict[int, tuple[int, object]] = {}
    nopm: dict[int, object] = {}
    for outcome in run_sweep(tasks):
        if outcome.infeasible:
            continue
        k, scheme, level = outcome.task.tag
        ev = outcome.unwrap()
        if scheme == "no-pm":
            nopm[k] = ev
        elif ev.sla_met and (k not in best or ev.total_watts < best[k][1].total_watts):
            best[k] = (level, ev)

    for k, ft in trees.items():
        assert k in best, f"no feasible level at k={k}"
        level, ev = best[k]
        baseline = nopm[k]
        result.add(
            k,
            ft.n_hosts,
            ft.n_switches,
            f"aggregation-{level}",
            ev.total_watts,
            baseline.total_watts,
            (1.0 - ev.total_watts / baseline.total_watts) * 100.0,
            ev.sla_met,
        )
    return result


@register("datacenter-scale")
def default() -> ExperimentResult:
    return run()
