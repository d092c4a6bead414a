"""Joint network+server power evaluation (Section IV).

One *operating point* of the data center fixes the consolidation (an
aggregation policy, or the LP/heuristic at a scale factor K), the
server load, the SLA, and a DVFS governor.  :func:`evaluate_operating_point`
prices that point end to end:

* **network power** — switches + links of the active subnet;
* **server power** — a representative-server DES run whose per-request
  network latencies are sampled from the *consolidated* network (this
  is the coupling that makes the optimization joint: more aggregation
  ⇒ higher network latency ⇒ less compute slack ⇒ higher CPU power);
* **SLA** — the pooled 95th-percentile end-to-end latency against L.

:func:`evaluate_operating_points` prices many points over one
consolidation, building the network model and latency sampler once
and running one server DES per point; the singular form is that call
on a single point.

The ISNs are statistically identical under the pooled latency mixture,
so a small number of simulated cores prices every core in the fleet —
the same scaling argument the paper uses for its Fig. 13/15 results
("scaled based on the result of our MiniNet experiments").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..consolidation.base import ConsolidationResult
from ..control.latency_monitor import LatencyMonitor
from ..errors import ConfigurationError
from ..netsim.latency import LinkLatencyModel
from ..netsim.network import NetworkModel
from ..power.meter import PowerBreakdown
from ..power.models import LinkPowerModel, SwitchPowerModel
from ..sim.runner import ServerSimConfig, ServerSimResult
from ..workloads.search import SearchWorkload

__all__ = [
    "JointSimParams",
    "JointEvaluation",
    "evaluate_operating_point",
    "evaluate_operating_points",
]


@dataclass(frozen=True)
class JointSimParams:
    """Knobs of the representative-server evaluation.

    ``sim_cores`` cores are simulated for ``duration_s`` seconds; their
    average per-core power prices all ``n_servers * n_cores_per_server``
    cores in the fleet.
    """

    n_servers: int = 16
    n_cores_per_server: int = 12
    sim_cores: int = 2
    duration_s: float = 12.0
    warmup_s: float = 2.0
    static_watts: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_servers <= 0 or self.n_cores_per_server <= 0 or self.sim_cores <= 0:
            raise ConfigurationError("server/core counts must be positive")
        if not 0.0 <= self.warmup_s < self.duration_s < math.inf:
            raise ConfigurationError("need 0 <= warmup < duration, both finite")
        if not 0.0 <= self.static_watts < math.inf:
            raise ConfigurationError(
                f"static_watts must be finite and >= 0, got {self.static_watts}"
            )


@dataclass(frozen=True)
class JointEvaluation:
    """A fully priced operating point."""

    breakdown: PowerBreakdown
    sla_met: bool
    query_p95_s: float
    violation_rate: float
    n_switches_on: int
    scale_factor: float
    governor: str
    server_result: ServerSimResult
    consolidation: ConsolidationResult

    @property
    def total_watts(self) -> float:
        return self.breakdown.total_watts


def evaluate_operating_point(
    workload: SearchWorkload,
    traffic,
    consolidation: ConsolidationResult,
    utilization: float,
    governor_factory,
    params: JointSimParams | None = None,
    switch_model: SwitchPowerModel | None = None,
    link_model: LinkPowerModel | None = None,
    link_latency_model: LinkLatencyModel | None = None,
) -> JointEvaluation:
    """Price one (consolidation, load, governor) operating point.

    ``traffic`` must be the same flow set the consolidation routed —
    link utilizations (and hence network latencies) are computed from
    its actual demands.  This is :func:`evaluate_operating_points` on a
    single point: the server runs on the lockstep engine, whatever the
    governor.
    """
    (evaluation,) = evaluate_operating_points(
        workload,
        traffic,
        consolidation,
        [(workload.latency_constraint_s, utilization, governor_factory, None)],
        params=params,
        switch_model=switch_model,
        link_model=link_model,
        link_latency_model=link_latency_model,
    )
    return evaluation


def _price(
    server: ServerSimResult,
    consolidation: ConsolidationResult,
    params: JointSimParams,
    switch_model: SwitchPowerModel,
    link_model: LinkPowerModel,
) -> JointEvaluation:
    """Fleet-scale a server run into a priced operating point."""
    per_core = server.cpu_power_watts / params.sim_cores
    fleet_cpu = params.n_servers * params.n_cores_per_server * per_core
    switch_watts, link_watts = consolidation.subnet.network_power(switch_model, link_model)
    breakdown = PowerBreakdown(
        switch_watts=switch_watts,
        link_watts=link_watts,
        server_static_watts=params.n_servers * params.static_watts,
        server_cpu_watts=fleet_cpu,
    )
    return JointEvaluation(
        breakdown=breakdown,
        sla_met=server.meets_sla,
        query_p95_s=server.total_latency.p95,
        violation_rate=server.violation_rate,
        n_switches_on=consolidation.n_switches_on,
        scale_factor=consolidation.scale_factor,
        governor=server.governor,
        server_result=server,
        consolidation=consolidation,
    )


def evaluate_operating_points(
    workload: SearchWorkload,
    traffic,
    consolidation: ConsolidationResult,
    points,
    params: JointSimParams | None = None,
    switch_model: SwitchPowerModel | None = None,
    link_model: LinkPowerModel | None = None,
    link_latency_model: LinkLatencyModel | None = None,
) -> list:
    """Price many operating points over one consolidated network.

    ``points`` is a sequence of ``(constraint_s, utilization,
    governor_factory, governor_name)`` tuples that share one
    consolidation (and hence one network latency mixture, sampled
    through one pooled sampler).  Each point runs its own
    :func:`~repro.simfast.multipoint.run_multipoint_simulation` DES, and
    each returned :class:`JointEvaluation` is bit-identical to a
    one-point :func:`~repro.sim.runner.run_server_simulation` run of the
    same point; results are in ``points`` order.
    """
    from ..simfast.multipoint import MultipointPoint, run_multipoint_simulation

    params = params or JointSimParams()
    switch_model = switch_model or SwitchPowerModel()
    link_model = link_model or LinkPowerModel()

    network = NetworkModel(
        workload.topology,
        traffic,
        consolidation.routing,
        link_model=link_latency_model,
    )
    monitor = LatencyMonitor(network)
    sampler = monitor.pooled_sampler(seed_or_rng=params.seed)

    mp_points = [
        MultipointPoint(
            config=ServerSimConfig(
                utilization=float(utilization),
                latency_constraint_s=constraint_s,
                network_budget_s=workload.network_budget_s,
                n_cores=params.sim_cores,
                duration_s=params.duration_s,
                warmup_s=params.warmup_s,
                static_watts=params.static_watts,
                seed=params.seed,
            ),
            governor_factory=factory,
            governor_name=name,
        )
        for constraint_s, utilization, factory, name in points
    ]
    servers = run_multipoint_simulation(
        workload.service_model, mp_points, network_latency_sampler=sampler
    )
    return [_price(s, consolidation, params, switch_model, link_model) for s in servers]
