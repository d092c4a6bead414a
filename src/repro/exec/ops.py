"""Registered sweep operations — the worker-side vocabulary.

Every experiment point decomposes into a handful of primitive,
*reconstructible-from-spec* operations: solve a consolidation, run one
server simulation, price one joint operating point, summarize network
tails, build a diurnal power profile.  Each op takes only picklable
primitives (plus frozen config dataclasses), rebuilds topology /
workload / samplers deterministically from them, and returns a
picklable result — which is what lets the executor run it in any
process and the cache memoize it across figures: fig13's per-level
consolidation solves, fig12's level-0 routing for its latency sampler
and the ablations' all share the single ``consolidate`` op.

Governors are named, not passed as callables (closures don't pickle);
:func:`governor_factory` is the one place the name → policy mapping
lives.

Every server point runs through the lockstep engine, one point per
call (``server-sim``, ``joint-eval``) or per profile grid point
(``diurnal-profile``), TimeTrader, the clairvoyant oracle and sleep
models included.  No op takes an engine argument.
"""

from __future__ import annotations

import functools

from ..consolidation.elastictree import ElasticTreeConsolidator
from ..consolidation.heuristic import GreedyConsolidator, route_on_subnet
from ..control.controller import SdnController
from ..control.latency_monitor import LatencyMonitor
from ..core.joint import (
    JointEvaluation,
    JointSimParams,
    evaluate_operating_point,
)
from ..errors import ConfigurationError, InfeasibleError
from ..faults import FaultInjector, FaultSchedule
from ..netsim.network import NetworkModel
from ..policies.eprons_server import EpronsServerGovernor
from ..policies.maxfreq import MaxFrequencyGovernor
from ..policies.oracle import OracleGovernor
from ..policies.rubik import RubikGovernor, RubikPlusGovernor
from ..policies.timetrader import TimeTraderGovernor
from ..policies.variants import EpronsNoReorderGovernor
from ..power.sleep import POWERNAP_SLEEP
from ..server.dvfs import XEON_LADDER
from ..sim.runner import ServerSimConfig, ServerSimResult
from ..simfast.multipoint import MultipointPoint, run_multipoint_simulation
from ..topology.aggregation import aggregation_policy
from ..topology.fattree import FatTree
from ..workloads.search import SearchWorkload
from .cache import cached_call
from .registry import task_fn

__all__ = [
    "governor_factory",
    "workload_for",
    "consolidate_op",
    "failure_run_op",
    "telemetry_run_op",
    "adaptive_run_op",
    "ADAPTIVE_POLICIES",
    "server_sim_op",
    "joint_eval_op",
    "network_latency_summary_op",
    "diurnal_profile_op",
    "GOVERNOR_NAMES",
]

GOVERNOR_NAMES = (
    "no-pm",
    "timetrader",
    "rubik",
    "rubik+",
    "eprons-server",
    "eprons-noreorder",
    "oracle",
)

_SLEEP_MODELS = {"none": None, "powernap": POWERNAP_SLEEP}


def governor_factory(name: str, workload: SearchWorkload):
    """A fresh-instance factory for the named DVFS policy."""
    svc = workload.service_model
    constraint_s = workload.latency_constraint_s
    if name == "no-pm":
        return lambda: MaxFrequencyGovernor(XEON_LADDER)
    if name == "timetrader":
        return lambda: TimeTraderGovernor(XEON_LADDER, constraint_s)
    if name == "rubik":
        return lambda: RubikGovernor(svc, XEON_LADDER)
    if name == "rubik+":
        return lambda: RubikPlusGovernor(svc, XEON_LADDER)
    if name == "eprons-server":
        return lambda: EpronsServerGovernor(svc, XEON_LADDER)
    if name == "eprons-noreorder":
        return lambda: EpronsNoReorderGovernor(svc, XEON_LADDER)
    if name == "oracle":
        return lambda: OracleGovernor(svc.frequency_model, XEON_LADDER)
    raise ConfigurationError(f"unknown governor {name!r}; known: {GOVERNOR_NAMES}")


@functools.lru_cache(maxsize=8)
def workload_for(arity: int, constraint_ms: float | None = None) -> SearchWorkload:
    """The paper's search deployment on a k-ary fat-tree.

    Memoized per process: the workload, its topology (a frozen graph)
    and its service model are immutable, and every op on a given
    (arity, constraint) shares one copy instead of rebuilding both.
    """
    ft = FatTree(arity)
    if constraint_ms is None:
        return SearchWorkload(ft)
    return SearchWorkload(ft, latency_constraint_s=constraint_ms * 1e-3)


# -- consolidation -----------------------------------------------------------------


@task_fn("consolidate")
def consolidate_op(
    *,
    arity: int,
    scheme: str,
    background: float,
    traffic_seed: int,
    level: int = 0,
    scale_factor: float = 1.0,
    best_effort: bool = False,
):
    """Solve one consolidation instance.

    ``scheme``:

    * ``"aggregation"`` — route on the fixed aggregation-``level``
      subnet (the Fig. 13 policies);
    * ``"greedy"`` — latency-aware greedy consolidation at K =
      ``scale_factor``;
    * ``"elastictree"`` — bandwidth-only baseline.

    Raises :class:`~repro.errors.InfeasibleError` when the instance
    cannot be packed — the executor records that as a legitimate
    "infeasible" outcome, and the cache remembers it.
    """
    workload = workload_for(arity)
    traffic = workload.traffic(background, seed_or_rng=traffic_seed)
    if scheme == "aggregation":
        subnet = aggregation_policy(workload.topology, level)
        return route_on_subnet(subnet, traffic)
    if scheme == "greedy":
        consolidator = GreedyConsolidator(workload.topology)
        return consolidator.consolidate(traffic, scale_factor, best_effort_scale=best_effort)
    if scheme == "elastictree":
        consolidator = ElasticTreeConsolidator(workload.topology)
        return consolidator.consolidate(traffic, scale_factor, best_effort_scale=best_effort)
    raise ConfigurationError(f"unknown consolidation scheme {scheme!r}")


def _cached_consolidation(**spec):
    """Worker-side cached consolidation solve (shared across figures)."""
    return cached_call("consolidate", **spec)


# -- failure injection -------------------------------------------------------------


@task_fn("failure-run")
def failure_run_op(
    *,
    arity: int,
    scheme: str,
    scale_factor: float,
    background: float,
    n_epochs: int,
    switch_fail_prob: float,
    link_fail_prob: float,
    mean_repair_epochs: float,
    traffic_seed: int,
    fault_seed: int,
) -> dict:
    """Run the controller through a seeded fault schedule and summarize
    its resilience — the failure-sweep unit of work.

    Per epoch: recovered devices come back to the available pool, the
    optimizer runs (routing around anything still failed), then the
    epoch's failures land mid-epoch and the controller walks its repair
    ladder.  An epoch whose optimization cannot be packed at all keeps
    the previous configuration ("deferred").  Everything is rebuilt
    deterministically from the spec, so results cache across sweeps.
    """
    workload = workload_for(arity)
    topo = workload.topology
    traffic = workload.traffic(background, seed_or_rng=traffic_seed)
    schedule = FaultSchedule.generate(
        topo,
        n_epochs,
        switch_fail_prob=switch_fail_prob,
        link_fail_prob=link_fail_prob,
        mean_repair_epochs=mean_repair_epochs,
        seed=fault_seed,
    )
    injector = FaultInjector(topo, schedule)
    if scheme == "greedy":
        consolidator = GreedyConsolidator(topo)
    elif scheme == "elastictree":
        consolidator = ElasticTreeConsolidator(topo)
    else:
        raise ConfigurationError(f"unknown consolidation scheme {scheme!r}")
    controller = SdnController(
        consolidator, scale_factor=scale_factor, milp_fallback_time_limit_s=60.0
    )
    switches_on: list[int] = []
    deferred = unrecovered = 0
    for epoch in range(n_epochs):
        update = injector.advance(epoch)
        if update.any_recoveries:
            controller.handle_recoveries(
                update.recovered_switches, update.recovered_links
            )
        try:
            out = controller.run_epoch(traffic)
            switches_on.append(out.result.n_switches_on)
        except InfeasibleError:
            deferred += 1
        if update.any_failures:
            try:
                controller.handle_failures(
                    traffic,
                    switches=update.failed_switches,
                    links=update.failed_links,
                )
            except InfeasibleError:
                # Even safe mode cannot carry the demand: flows stay
                # stranded until devices recover.
                unrecovered += 1
    summary = controller.resilience.summary()
    summary.update(
        {
            "n_faults": schedule.n_failures,
            "epochs_run": len(switches_on),
            "deferred_epochs": deferred,
            "unrecovered_notifications": unrecovered,
            "avg_switches_on": (
                sum(switches_on) / len(switches_on) if switches_on else 0.0
            ),
            "switch_power_ons": controller.switch_power_on_count,
            "controller_transition_energy_j": controller.transition_energy_joules,
            "milp_fallbacks": controller.milp_fallback_count,
        }
    )
    return summary


# -- imperfect telemetry -----------------------------------------------------------


@task_fn("telemetry-run")
def telemetry_run_op(
    *,
    arity: int,
    scale_factor: float,
    background: float,
    n_epochs: int,
    n_polls: int,
    stats_loss_prob: float,
    stale_prob: float,
    delay_prob: float,
    noise_frac: float,
    guardrail_on: bool,
    staleness_inflation: float = 0.0,
    k_max: float = 4.0,
    n_latency_samples: int = 40,
    telemetry_seed: int = 0,
    traffic_seed: int = 0,
) -> dict:
    """Run the controller under lossy telemetry and score its SLA hygiene
    — the telemetry-robustness-sweep unit of work.

    The background demand ramps from half the target ``background`` up
    to the full level across the run, so a monitor fed stale or lost
    stats systematically *under*-predicts the rising load — exactly the
    regime where an unguarded controller over-shrinks the subnet.  Each
    epoch:

    1. the optimizer runs on whatever the (degraded) monitor believes;
    2. the ground-truth tail is measured by replaying the *true* epoch
       traffic on the committed routing;
    3. a tail above the network budget counts as an SLA-violation
       epoch; with ``guardrail_on`` the measurement is also fed to the
       violation watchdog (rollback / K escalation / cooldown).

    Everything — traffic, telemetry degradation, latency sampling — is
    rebuilt deterministically from the spec, so results cache and the
    guardrail-on/off pair differs in nothing but the guardrail.
    """
    import numpy as np

    from ..control.guardrail import SlaGuardrail
    from ..control.kcontrol import ScaleFactorController
    from ..control.monitor import TrafficMonitor
    from ..telemetry import DegradedStatsCollector, TelemetryProfile

    workload = workload_for(arity)
    topo = workload.topology
    budget_s = workload.network_budget_s
    profile = TelemetryProfile(
        stats_loss_prob=stats_loss_prob,
        stale_prob=stale_prob,
        delay_prob=delay_prob,
        noise_frac=noise_frac,
        seed=telemetry_seed,
    )
    collector = DegradedStatsCollector(topo, profile)
    monitor = TrafficMonitor(
        window=n_polls, staleness_inflation=staleness_inflation
    )
    guardrail = None
    if guardrail_on:
        guardrail = SlaGuardrail(
            budget_s,
            kcontrol=ScaleFactorController(
                budget_s, k_initial=scale_factor, k_max=k_max
            ),
        )
    controller = SdnController(
        GreedyConsolidator(topo),
        scale_factor=scale_factor,
        guardrail=guardrail,
        monitor=monitor,
    )

    violations = deferred = 0
    tails_s: list[float] = []
    switches_on: list[int] = []
    for epoch in range(n_epochs):
        ramp = 0.5 + 0.5 * (epoch / max(n_epochs - 1, 1))
        true_traffic = workload.traffic(
            background * ramp, seed_or_rng=traffic_seed
        )
        try:
            out = controller.run_epoch(true_traffic)
            if out.committed:
                switches_on.append(out.result.n_switches_on)
        except InfeasibleError:
            deferred += 1
        if controller.current_routing is not None:
            truth = NetworkModel(topo, true_traffic, controller.current_routing)
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=[traffic_seed & 0xFFFFFFFF, 0x7E1E, epoch]
                )
            )
            tail_s = truth.query_latency_summary(
                n_per_flow=n_latency_samples, seed_or_rng=rng
            ).p95
            tails_s.append(tail_s)
            if tail_s > budget_s:
                violations += 1
            if guardrail is not None:
                controller.observe_sla(tail_s)
        # Telemetry for this epoch arrives during it — the *next*
        # epoch's optimization is the first that can use it.
        collector.feed(monitor, epoch, true_traffic, n_polls=n_polls)

    return {
        "epochs": n_epochs,
        "violation_epochs": violations,
        "deferred_epochs": deferred,
        "mean_tail_ms": 1e3 * (sum(tails_s) / len(tails_s)) if tails_s else 0.0,
        "max_tail_ms": 1e3 * max(tails_s, default=0.0),
        "avg_switches_on": (
            sum(switches_on) / len(switches_on) if switches_on else 0.0
        ),
        "switch_power_ons": controller.switch_power_on_count,
        "transition_energy_j": controller.transition_energy_joules,
        "k_final": controller.scale_factor,
        "guardrail": guardrail.summary() if guardrail is not None else None,
        "telemetry": collector.accounting(),
        "monitor": monitor.telemetry_counters(),
    }


# -- adaptive control on adversarial workloads -------------------------------------

ADAPTIVE_POLICIES = ("fixed", "hysteresis", "bandit")


@task_fn("adaptive-run")
def adaptive_run_op(
    *,
    scenario: str,
    policy: str,
    arity: int = 4,
    n_epochs: int | None = None,
    scenario_seed: int = 0,
    seed: int = 0,
    fixed_k: float = 4.0,
    fixed_governor: str = "no-pm",
    fixed_inflation: float = 0.0,
    guardrail_on: bool = True,
    sla_penalty_j: float = 4e5,
    k_max: float = 4.0,
    epoch_s: float = 600.0,
    n_polls: int = 8,
    n_latency_samples: int = 40,
) -> dict:
    """Replay one adversarial scenario under one operating-point policy
    — the adversarial-regret-sweep unit of work.

    ``scenario`` is a builder name from
    :data:`repro.workloads.ADVERSARIAL_SCENARIOS` (the scenario object
    itself holds numpy series, so the spec carries only the name and
    seeds and rebuilds it here — keeping the spec canonical-JSON-able
    and the result cacheable).  ``policy`` is one of
    :data:`ADAPTIVE_POLICIES`; ``fixed_*`` select the operating point
    when it is ``"fixed"`` (the regret oracle's arms are fixed-policy
    runs with ``guardrail_on=False``; a fixed policy *with* the
    guardrail is the guardrail-only configuration).  Returns the
    closed-loop replay record of
    :func:`repro.control.adaptive.replay_scenario`: per-epoch costs,
    violations, K/governor series and controller counters.
    """
    from ..control.adaptive import (
        ContextualBanditController,
        FixedPolicy,
        JointHysteresisController,
        OperatingPoint,
        replay_scenario,
    )
    from ..workloads.adversarial import build_scenario

    scen = build_scenario(scenario, n_epochs=n_epochs, seed=scenario_seed)
    if policy == "fixed":
        pol = FixedPolicy(
            OperatingPoint(
                k=fixed_k,
                governor=fixed_governor,
                staleness_inflation=fixed_inflation,
            )
        )
    elif policy == "hysteresis":
        pol = JointHysteresisController()
    elif policy == "bandit":
        pol = ContextualBanditController(seed_or_rng=seed)
    else:
        raise ConfigurationError(
            f"unknown adaptive policy {policy!r}; known: {ADAPTIVE_POLICIES}"
        )
    return replay_scenario(
        scen,
        pol,
        arity=arity,
        k_max=k_max,
        epoch_s=epoch_s,
        n_polls=n_polls,
        n_latency_samples=n_latency_samples,
        seed=seed,
        sla_penalty_j=sla_penalty_j,
        guardrail_on=guardrail_on,
    )


# -- server simulation -------------------------------------------------------------


@task_fn("server-sim")
def server_sim_op(
    *,
    arity: int,
    constraint_ms: float,
    governor: str,
    utilization: float,
    background: float,
    duration_s: float,
    warmup_s: float,
    n_cores: int,
    seed: int,
    sleep: str = "none",
) -> ServerSimResult:
    """One server-simulation run (the Fig. 12 unit of work).

    Per-request network latencies are sampled from the full (level-0)
    topology routed at ``background`` — the paper's "network is not
    power-managed here" setup; the underlying consolidation solve is
    itself cache-shared with every other figure at the same traffic.

    The point runs on the lockstep engine, under a ``sleep`` model
    too.  VP governors fetch their tables from the process-wide
    :func:`repro.simfast.shared_table_engine` registry, so every
    server-sim task a warm worker executes for the same (service model,
    ladder) pair reuses one set of tables instead of rebuilding them
    per point.
    """
    if sleep not in _SLEEP_MODELS:
        raise ConfigurationError(
            f"unknown sleep model {sleep!r}; known: {tuple(_SLEEP_MODELS)}"
        )
    workload = workload_for(arity, constraint_ms)
    factory = governor_factory(governor, workload)
    consolidation = _cached_consolidation(
        arity=arity, scheme="aggregation", level=0,
        background=background, traffic_seed=seed,
    )
    traffic = workload.traffic(background, seed_or_rng=seed)
    monitor = LatencyMonitor(NetworkModel(workload.topology, traffic, consolidation.routing))
    sampler = monitor.pooled_sampler(seed_or_rng=seed)
    config = ServerSimConfig(
        utilization=utilization,
        latency_constraint_s=workload.latency_constraint_s,
        network_budget_s=workload.network_budget_s,
        n_cores=n_cores,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
    )
    (result,) = run_multipoint_simulation(
        workload.service_model,
        [MultipointPoint(config=config, governor_factory=factory)],
        network_latency_sampler=sampler,
        sleep_model=_SLEEP_MODELS[sleep],
    )
    return result


# -- joint evaluation --------------------------------------------------------------


@task_fn("joint-eval")
def joint_eval_op(
    *,
    arity: int,
    constraint_ms: float,
    background: float,
    level: int,
    utilization: float,
    governor: str,
    params: JointSimParams,
    traffic_seed: int,
) -> JointEvaluation:
    """Price one (aggregation level, load, governor) operating point
    end to end — the Fig. 13 / datacenter-scale unit of work.

    The consolidation solve goes through the shared cache, so the eight
    constraint points of one fig13 background level all reuse a single
    routing, as does any other figure at the same traffic spec.
    """
    workload = workload_for(arity, constraint_ms)
    consolidation = _cached_consolidation(
        arity=arity, scheme="aggregation", level=level,
        background=background, traffic_seed=traffic_seed,
    )
    traffic = workload.traffic(background, seed_or_rng=traffic_seed)
    return evaluate_operating_point(
        workload,
        traffic,
        consolidation,
        utilization,
        governor_factory(governor, workload),
        params=params,
    )


# -- network latency summaries -----------------------------------------------------


@task_fn("network-latency-summary")
def network_latency_summary_op(
    *,
    arity: int,
    scheme: str,
    scale_factor: float,
    background: float,
    n_per_flow: int,
    seed: int,
    level: int = 0,
    best_effort: bool = True,
) -> dict:
    """Consolidate and summarize query network tails (Fig. 11 /
    network-ablation unit of work)."""
    workload = workload_for(arity)
    consolidation = _cached_consolidation(
        arity=arity, scheme=scheme, level=level, scale_factor=scale_factor,
        best_effort=best_effort, background=background, traffic_seed=seed,
    )
    traffic = workload.traffic(background, seed_or_rng=seed)
    nm = NetworkModel(workload.topology, traffic, consolidation.routing)
    summary = nm.query_latency_summary(n_per_flow=n_per_flow, seed_or_rng=seed)
    return {
        "scale_factor": consolidation.scale_factor,
        "switches_on": consolidation.n_switches_on,
        "network_w": consolidation.objective_watts,
        "p95_s": summary.p95,
        "p99_s": summary.p99,
        "within_net_budget": summary.p95 <= workload.network_budget_s,
    }


# -- diurnal profiles --------------------------------------------------------------


@task_fn("diurnal-profile")
def diurnal_profile_op(
    *,
    arity: int,
    scheme: str,
    level: int,
    bg_bucket: float,
    util_grid: tuple,
    params: JointSimParams,
    traffic_seed: int,
) -> dict:
    """Build one (scheme, aggregation level, background bucket) power
    profile for the Fig. 15 diurnal replay.

    Returns ``{"entry": (traffic, consolidation) | None, "profile":
    PowerProfile | None}`` — ``None`` marks an infeasible level, which
    the diurnal runner skips exactly as in the serial path.
    """
    from ..core.eprons import DiurnalRunner

    workload = workload_for(arity)
    runner = DiurnalRunner(
        workload,
        bg_buckets=(bg_bucket,),
        util_grid=util_grid,
        params=params,
        traffic_seed=traffic_seed,
    )
    entry = runner.consolidation_entry(level, bg_bucket)
    profile = runner.build_profile(scheme, level, bg_bucket)
    return {"entry": entry, "profile": profile}
