"""Fig. 4 and Fig. 5 — violation-probability machinery.

Fig. 4: deadline-violation probability of a queued pair (R1 and its
equivalent R2e) versus operating frequency, showing why the average-VP
frequency ``f_new`` sits below the max-VP choice ``f2``.

Fig. 5: the violation probability of three equivalent requests versus
the work achievable by the deadline, ω(D) — reading VP is just a CCDF
lookup.

Fig. 4 reads its VPs from the governors' own tables
(:class:`~repro.simfast.tables.VPTableEngine`), so the frequencies it
reports are the ones the Rubik and EPRONS-Server governors pick.
"""

from __future__ import annotations

import numpy as np

from ..server.distributions import ConvolutionCache
from ..server.dvfs import XEON_LADDER
from ..server.service import default_service_model
from ..simfast.tables import shared_table_engine
from ..units import to_ghz
from .runner import ExperimentResult, register

__all__ = ["run_fig4", "run_fig5"]


def run_fig4(
    deadline_r1_s: float = 8e-3,
    deadline_r2_s: float = 11e-3,
    target_vp: float = 0.05,
) -> ExperimentResult:
    """VP vs frequency for R1 and the equivalent R2e (queue of two)."""
    tables = shared_table_engine(default_service_model(), XEON_LADDER)
    # R1 in service (nothing done yet), R2 queued behind it.
    deltas = np.array([deadline_r1_s, deadline_r2_s])
    offset = tables.head_offset(0.0)
    vp = tables.violation_probabilities(deltas, offset)
    result = ExperimentResult(
        figure="fig04",
        title="Violation probability vs frequency (R1, R2e, average)",
        columns=("freq_ghz", "vp_r1_pct", "vp_r2e_pct", "avg_vp_pct"),
        notes=f"SLA target: {target_vp:.0%} violation probability.",
    )
    for fi, f in enumerate(tables.frequencies):
        vps = vp[:, fi]
        result.add(
            to_ghz(f),
            float(vps[0]) * 100.0,
            float(vps[1]) * 100.0,
            float(vps.mean()) * 100.0,
        )

    f_max_rule = tables.decide(deltas, offset, "max", target_vp)
    f_avg_rule = tables.decide(deltas, offset, "mean", target_vp)
    result.notes += (
        f"  Rubik rule picks f2={to_ghz(f_max_rule or XEON_LADDER.f_max):.1f} GHz; "
        f"EPRONS-Server picks f_new={to_ghz(f_avg_rule or XEON_LADDER.f_max):.1f} GHz."
    )
    return result


def run_fig5(queue_depth: int = 3, n_points: int = 24) -> ExperimentResult:
    """VP vs work budget ω(D) for the first three equivalent requests."""
    svc = default_service_model()
    cache = ConvolutionCache(svc.distribution)
    equivalents = [cache.power(k) for k in range(1, queue_depth + 1)]
    max_work = equivalents[-1].quantile(0.999)
    budgets = np.linspace(0.0, max_work, n_points)
    result = ExperimentResult(
        figure="fig05",
        title="Violation probability vs work done at deadline omega(D)",
        columns=("omega_ms_at_fref", "vp_r1e_pct", "vp_r2e_pct", "vp_r3e_pct"),
        notes="CCDF lookup of each equivalent distribution (Section III-B).",
    )
    for w in budgets:
        result.add(
            float(w) * 1e3,
            equivalents[0].ccdf(float(w)) * 100.0,
            equivalents[1].ccdf(float(w)) * 100.0,
            equivalents[2].ccdf(float(w)) * 100.0,
        )
    return result


@register("fig04")
def default_fig4() -> ExperimentResult:
    return run_fig4()


@register("fig05")
def default_fig5() -> ExperimentResult:
    return run_fig5()
