"""Server-side ablation: what each EPRONS-Server ingredient buys.

EPRONS-Server = Rubik+ + average-VP rule + EDF reordering.  This
experiment isolates the contributions and bounds the remaining headroom
with a clairvoyant oracle:

=====================  ==========  ============
governor               VP rule     queue order
=====================  ==========  ============
rubik+                 max         FIFO
eprons-noreorder       average     FIFO
eprons-server          average     EDF
oracle                 exact work  EDF
=====================  ==========  ============

All four see per-request network slack; differences are purely the
frequency-selection policy.
"""

from __future__ import annotations

from ..exec import SweepTask, run_sweep
from ..units import to_ms
from .fig12_server_power import _scaled_cpu_power
from .runner import ExperimentResult, register

__all__ = ["run"]

ABLATION_GOVERNORS = ("rubik+", "eprons-noreorder", "eprons-server", "oracle")


def run(
    utilizations=(0.2, 0.4),
    constraint_s: float = 25e-3,
    background: float = 0.2,
    duration_s: float = 40.0,
    n_cores: int = 2,
    seed: int = 3,
) -> ExperimentResult:
    result = ExperimentResult(
        figure="ablation-server",
        title="EPRONS-Server ingredient ablation (avg-VP, EDF, clairvoyance)",
        columns=("governor", "utilization_pct", "cpu_w_12core", "p95_ms", "viol_pct"),
        notes=(
            "Expected ordering: oracle <= eprons-server <= eprons-noreorder "
            "<= rubik+ in power; the oracle bounds what any distribution-"
            "based scheme could still save."
        ),
    )
    tasks = [
        SweepTask.make(
            "server-sim",
            tag=(gov, u),
            arity=4,
            constraint_ms=constraint_s * 1e3,
            governor=gov,
            utilization=u,
            background=background,
            duration_s=duration_s,
            warmup_s=min(duration_s / 3.0, 10.0),
            n_cores=n_cores,
            seed=seed,
        )
        for gov in ABLATION_GOVERNORS
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
            r.violation_rate * 100.0,
        )
    return result


@register("ablation-server")
def default() -> ExperimentResult:
    return run()
