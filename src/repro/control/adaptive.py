"""Online joint operating-point control (ROADMAP item 5's closed loop).

The paper picks the scale factor K and the server governor by *offline*
sweep; Popcorns-Pro-style cooperative control moves that choice online.
This module closes the loop: each optimization epoch a policy selects
one :class:`OperatingPoint` — the joint (K, governor,
staleness_inflation) knob triple — from a finite grid, the
:class:`~repro.control.controller.SdnController` adopts it (deferring
to the SLA guardrail when the watchdog just acted), and the realised
(energy + SLA-penalty) cost of the epoch is fed back.

Three policies share the ``propose(context) / observe(cost)`` protocol:

* :class:`FixedPolicy` — one grid point forever (the sweep baselines,
  and the arms the regret oracle is recovered from);
* :class:`JointHysteresisController` — the principled extension of
  :class:`~repro.control.kcontrol.ScaleFactorController` to the joint
  space: grid points are ordered by conservativeness, a violation jumps
  to the most conservative point, a comfortably-clear tail relaxes one
  step down, a dead band plus cooldown prevents oscillation;
* :class:`ContextualBanditController` — ε-greedy/UCB over the grid,
  contextualised on coarse buckets of the observable telemetry
  (tail latency, degraded-telemetry and churn flags), reward the
  negative normalised cost; all randomness via :func:`repro.rng.ensure_rng`.

The per-epoch *server* side is priced by :class:`ServerSurrogate` — a
deterministic O(1) stand-in for the DES: a governor plans a DVFS
frequency for the load it last saw (one epoch of lag, headroom by
policy aggressiveness), and the epoch's power and tail follow from the
resulting busy fraction.  The lag is the adversarial mechanism: a flash
crowd's onset lands on a frequency planned for the lull, saturating
aggressive governors while conservative ones ride it out at higher
energy.  Absolute values are calibrated, not simulated; every policy is
priced by the same surrogate, so *differences* — the quantity regret
accounting consumes — are meaningful.

Regret is accounted against the per-regime oracle
(:func:`oracle_costs`): for each regime label of the scenario, the
fixed arm with the least summed cost over that regime's epochs; regret
of a policy is its cumulative cost minus the oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..power.models import ServerPowerModel
from ..rng import ensure_rng
from ..server.dvfs import XEON_LADDER

__all__ = [
    "OperatingPoint",
    "GOVERNOR_HEADROOM",
    "default_operating_grid",
    "ServerSurrogate",
    "FixedPolicy",
    "JointHysteresisController",
    "ContextualBanditController",
    "oracle_costs",
    "regret_series",
    "replay_scenario",
]

#: Frequency-planning headroom by governor: the planned speed is
#: ``min(1, load * headroom)`` of f_max.  ``None`` means the governor
#: never scales down (the paper's no-PM baseline).  Larger headroom ⇒
#: more conservative (faster, hotter, harder to saturate).
GOVERNOR_HEADROOM = {
    "no-pm": None,
    "rubik": 1.4,
    "rubik+": 1.3,
    "timetrader": 1.2,
    "eprons-noreorder": 1.15,
    "eprons-server": 1.1,
    "oracle": 1.02,
}


@dataclass(frozen=True)
class OperatingPoint:
    """One joint knob setting: (K, server governor, staleness inflation)."""

    k: float
    governor: str
    staleness_inflation: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1.0:
            raise ConfigurationError(f"scale factor must be >= 1, got {self.k}")
        if self.governor not in GOVERNOR_HEADROOM:
            raise ConfigurationError(
                f"unknown governor {self.governor!r}; known: "
                f"{tuple(sorted(GOVERNOR_HEADROOM))}"
            )
        if self.staleness_inflation < 0:
            raise ConfigurationError("staleness inflation must be non-negative")

    @property
    def label(self) -> str:
        out = f"k{self.k:g}-{self.governor}"
        if self.staleness_inflation:
            out += f"-i{self.staleness_inflation:g}"
        return out

    def conservativeness(self) -> tuple:
        """Sort key: cheap/aggressive first, safe/expensive last.

        Governor-major, then K: server power dwarfs the per-K network
        delta on the quiet side of the grid, so this order is monotone
        in quiet-regime cost — which is what makes "jump to the lowest
        unscarred point" a sensible relaxation target.
        """
        h = GOVERNOR_HEADROOM[self.governor]
        return (math.inf if h is None else h, self.k, self.staleness_inflation)


def default_operating_grid(
    ks=(1.0, 2.0, 4.0),
    governors=("eprons-server", "no-pm"),
    inflations=(0.0,),
) -> tuple[OperatingPoint, ...]:
    """The cross-product grid, ordered by conservativeness ascending."""
    points = [
        OperatingPoint(k=float(k), governor=g, staleness_inflation=float(i))
        for k in ks
        for g in governors
        for i in inflations
    ]
    if not points:
        raise ConfigurationError("operating grid must be non-empty")
    return tuple(sorted(points, key=OperatingPoint.conservativeness))


# -- server-side pricing -----------------------------------------------------------


class ServerSurrogate:
    """Deterministic per-epoch server power/tail pricing.

    Each epoch the governor plans a ladder frequency for the load it
    observed *last* epoch (plus its headroom); the epoch then runs at
    the true load.  Busy fraction = load · f_max / f; past the
    saturation knee the queue grows for the whole epoch and the tail is
    dominated by backlog.  Below it, an M/M/1-style ``1/(1-ρ)``
    inflation of the base service tail.
    """

    SATURATION = 0.97

    def __init__(
        self,
        power_model: ServerPowerModel | None = None,
        ladder=XEON_LADDER,
        base_tail_s: float = 1.5e-3,
        saturated_tail_s: float = 0.25,
    ):
        if base_tail_s <= 0 or saturated_tail_s <= 0:
            raise ConfigurationError("surrogate tails must be positive")
        self.power_model = power_model if power_model is not None else ServerPowerModel()
        self.ladder = ladder
        self.base_tail_s = base_tail_s
        self.saturated_tail_s = saturated_tail_s
        self._planned_load: float | None = None

    def step(self, governor: str, load: float) -> tuple[float, float]:
        """Price one epoch; returns ``(watts_per_server, server_tail_s)``."""
        if not 0.0 < load <= 1.0:
            raise ConfigurationError(f"load {load} outside (0, 1]")
        headroom = GOVERNOR_HEADROOM[governor]
        planned = self._planned_load if self._planned_load is not None else load
        self._planned_load = load
        f_max = self.ladder.f_max
        if headroom is None:
            f = f_max
        else:
            f = self.ladder.clamp(min(1.0, planned * headroom) * f_max)
        busy_raw = load * f_max / f
        if busy_raw >= self.SATURATION:
            busy = self.SATURATION
            tail_s = self.saturated_tail_s * max(1.0, busy_raw)
        else:
            busy = busy_raw
            tail_s = self.base_tail_s * (f_max / f) / (1.0 - busy)
        n = self.power_model.n_cores
        watts = self.power_model.total_power([busy] * n, [f] * n)
        return watts, tail_s


# -- policies ----------------------------------------------------------------------


class FixedPolicy:
    """One operating point forever (the baseline arms).

    Non-adaptive: the replay engine sets the point once at construction
    and never calls back into the controller, so with the guardrail on
    this is exactly the "guardrail-only" configuration — the watchdog
    alone drives K.
    """

    adaptive = False

    def __init__(self, point: OperatingPoint):
        self.point = point
        self.name = f"fixed-{point.label}"
        self.total_cost_j = 0.0

    def propose(self, context: dict) -> OperatingPoint:
        return self.point

    def observe(self, cost_j: float, context: dict | None = None) -> None:
        self.total_cost_j += cost_j


class JointHysteresisController:
    """Hysteresis + cooldown + scar memory over the ordered grid.

    The scalar :class:`~repro.control.kcontrol.ScaleFactorController`
    lifted to the joint space: instead of stepping K by ±1 it steps an
    *index* along the conservativeness-ordered grid.  Three asymmetries,
    each earning its keep against adversarial traffic:

    * **violation ⇒ jump to the top** — an SLA miss costs more than any
      single epoch of spare energy, so recovery is immediate, not
      stepped (the guardrail's escalate-by-one would take several
      epochs to buy the same headroom);
    * **relaxation ⇒ jump to the floor** — after ``relax_after``
      consecutive comfortably-clear epochs the controller drops
      straight to the cheapest point not ruled out by a live scar.
      Stepping down one index at a time would buy nothing but dwell
      time at intermediate points (grid cost is not monotone in
      conservativeness); the scar floor is the safety net;
    * **violations scar what they disprove**: for ``scar_epochs`` the
      relaxation floor stays above the scarred points, so a relaxation
      cycle does not re-buy a penalty it already paid for.  A *network*
      violation at K=x disproves every point with K ≤ x (a smaller
      reservation cannot carry what this one could not); a *server*
      violation scars only the exact point (the governor saturated —
      its same-K sibling with a faster governor may still be fine).
      Scars expire: a point that was bad under a surge is often the
      right one once the surge has passed.
    """

    adaptive = True

    def __init__(
        self,
        points: tuple[OperatingPoint, ...] | None = None,
        latency_constraint_s: float = 30e-3,
        network_budget_s: float = 5e-3,
        upper_fraction: float = 0.85,
        lower_fraction: float = 0.6,
        cooldown_epochs: int = 1,
        relax_after: int = 2,
        scar_epochs: int = 8,
        start: str = "top",
    ):
        if not 0.0 < lower_fraction < upper_fraction <= 1.0:
            raise ConfigurationError(
                f"need 0 < lower < upper <= 1, got ({lower_fraction}, {upper_fraction})"
            )
        if cooldown_epochs < 0 or scar_epochs < 0:
            raise ConfigurationError("cooldown and scar epochs must be non-negative")
        if relax_after < 1:
            raise ConfigurationError("relax_after must be at least 1")
        if start not in ("top", "bottom"):
            raise ConfigurationError(f"start must be 'top' or 'bottom', got {start!r}")
        grid = points if points is not None else default_operating_grid()
        self.points = tuple(sorted(grid, key=OperatingPoint.conservativeness))
        self.latency_constraint_s = latency_constraint_s
        self.network_budget_s = network_budget_s
        self.upper_fraction = upper_fraction
        self.lower_fraction = lower_fraction
        self.cooldown_epochs = cooldown_epochs
        self.relax_after = relax_after
        self.scar_epochs = scar_epochs
        self._idx = len(self.points) - 1 if start == "top" else 0
        self._cooldown = 0
        self._streak = 0
        #: scarred index -> epoch counter the scar expires at.
        self._scars: dict[int, int] = {}
        self._clock = 0
        self.moves = 0
        self.escalations = 0
        self.name = "hysteresis"
        self.total_cost_j = 0.0

    @property
    def current(self) -> OperatingPoint:
        return self.points[self._idx]

    def _floor(self) -> int:
        """Lowest index not ruled out by a live scar (scars need not be
        contiguous: a network scar spans both governor branches)."""
        live = {i for i, until in self._scars.items() if until > self._clock}
        for i in range(len(self.points)):
            if i not in live:
                return i
        return len(self.points) - 1

    def propose(self, context: dict) -> OperatingPoint:
        self._clock += 1
        top = len(self.points) - 1
        tail = context.get("tail_s")
        net_tail = context.get("net_tail_s")
        # The point that actually ran last epoch: the controller may
        # have deferred our proposal, and scarring what *we wanted*
        # instead of what *was measured* would disprove the wrong
        # points (a violation while deferred at the bottom must not
        # scar the top of the grid).
        ran = context.get("point", self.points[self._idx])
        if context.get("violated"):
            until = self._clock + self.scar_epochs
            if net_tail is not None and net_tail > self.network_budget_s:
                for i, p in enumerate(self.points):
                    if p.k <= ran.k:
                        self._scars[i] = max(self._scars.get(i, 0), until)
            else:
                for i, p in enumerate(self.points):
                    if p.k == ran.k and p.governor == ran.governor:
                        self._scars[i] = max(self._scars.get(i, 0), until)
            if self._idx < top:
                self._idx = top
                self.moves += 1
                self.escalations += 1
            self._streak = 0
            self._cooldown = self.cooldown_epochs
        elif tail is not None:
            if tail < self.lower_fraction * self.latency_constraint_s:
                self._streak += 1
            else:
                self._streak = 0
            if self._cooldown > 0:
                self._cooldown -= 1
            elif tail > self.upper_fraction * self.latency_constraint_s:
                if self._idx < top:
                    self._idx += 1
                    self.moves += 1
                    self._streak = 0
                    self._cooldown = self.cooldown_epochs
            elif self._streak >= self.relax_after:
                floor = min(self._floor(), top)
                if self._idx > floor:
                    self._idx = floor
                    self.moves += 1
                    self._streak = 0
                    self._cooldown = self.cooldown_epochs
        return self.points[self._idx]

    def observe(self, cost_j: float, context: dict | None = None) -> None:
        self.total_cost_j += cost_j


class ContextualBanditController:
    """ε-greedy + UCB over the grid, contextualised on telemetry buckets.

    Context buckets are deliberately coarse — (tail band, degraded
    flag, churn flag) — so a 30-odd-epoch adversarial run revisits each
    context often enough for the value estimates to mean something.
    Costs are normalised online to [0, 1] (running min/max); untried
    arms are optimistic, ε decays as ``ε₀/√visits``, and every random
    draw comes from one :func:`~repro.rng.ensure_rng` stream, so a
    seeded replay is bit-identical anywhere.
    """

    adaptive = True

    def __init__(
        self,
        points: tuple[OperatingPoint, ...] | None = None,
        seed_or_rng=0,
        epsilon: float = 0.25,
        ucb_c: float = 0.5,
        latency_constraint_s: float = 30e-3,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon {epsilon} outside [0, 1]")
        if ucb_c < 0:
            raise ConfigurationError("ucb_c must be non-negative")
        grid = points if points is not None else default_operating_grid()
        self.points = tuple(sorted(grid, key=OperatingPoint.conservativeness))
        self.rng = ensure_rng(seed_or_rng)
        self.epsilon = epsilon
        self.ucb_c = ucb_c
        self.latency_constraint_s = latency_constraint_s
        #: context key -> per-arm [pull count, mean normalised cost].
        self._stats: dict[tuple, list[list[float]]] = {}
        self._last: tuple[tuple, int] | None = None
        self._cost_min: float | None = None
        self._cost_max: float | None = None
        self.explorations = 0
        self.name = "bandit"
        self.total_cost_j = 0.0

    def _bucket(self, context: dict) -> tuple:
        tail = context.get("tail_s")
        if tail is None:
            band = 0
        elif tail < 0.6 * self.latency_constraint_s:
            band = 1
        elif tail <= self.latency_constraint_s:
            band = 2
        else:
            band = 3
        degraded = 1 if context.get("degraded_fraction", 0.0) > 0.05 else 0
        churn = 1 if context.get("churn_fraction", 0.0) > 0.3 else 0
        return (band, degraded, churn)

    def propose(self, context: dict) -> OperatingPoint:
        key = self._bucket(context)
        arms = self._stats.setdefault(key, [[0, 0.0] for _ in self.points])
        total = sum(int(n) for n, _ in arms) + 1
        eps = self.epsilon / math.sqrt(total)
        if float(self.rng.random()) < eps:
            idx = int(self.rng.integers(0, len(self.points)))
            self.explorations += 1
        else:
            best_idx, best_score = 0, math.inf
            for i, (n, mean) in enumerate(arms):
                bonus = self.ucb_c * math.sqrt(math.log(total + 1.0) / (n + 1.0))
                # Untried arms score 0 - bonus: optimistic, tried in
                # conservativeness order (ties break toward cheap).
                score = (mean if n > 0 else 0.0) - bonus
                if score < best_score:
                    best_idx, best_score = i, score
            idx = best_idx
        self._last = (key, idx)
        return self.points[idx]

    def observe(self, cost_j: float, context: dict | None = None) -> None:
        self.total_cost_j += cost_j
        if self._last is None:
            return
        key, idx = self._last
        self._last = None
        self._cost_min = cost_j if self._cost_min is None else min(self._cost_min, cost_j)
        self._cost_max = cost_j if self._cost_max is None else max(self._cost_max, cost_j)
        span = self._cost_max - self._cost_min
        x = 0.5 if span <= 0 else (cost_j - self._cost_min) / span
        n, mean = self._stats[key][idx]
        self._stats[key][idx] = [n + 1, mean + (x - mean) / (n + 1)]


# -- regret accounting -------------------------------------------------------------


def oracle_costs(
    arm_costs: dict[str, tuple], regimes: tuple
) -> tuple[list[float], dict]:
    """Per-epoch cost of the per-regime oracle over fixed arms.

    For each regime label, the oracle plays — for *every* epoch of that
    regime — the single fixed arm with the least summed cost over the
    regime (ties break on arm name for determinism).  Returns the
    oracle's per-epoch cost series and the ``{regime: arm}`` choice.
    """
    if not arm_costs:
        raise ConfigurationError("oracle needs at least one fixed arm")
    n = len(regimes)
    for name, costs in arm_costs.items():
        if len(costs) != n:
            raise ConfigurationError(
                f"arm {name!r} has {len(costs)} epochs, regimes have {n}"
            )
    choice: dict = {}
    for regime in sorted(set(regimes)):
        idx = [e for e in range(n) if regimes[e] == regime]
        choice[regime] = min(
            sorted(arm_costs),
            key=lambda a: sum(arm_costs[a][e] for e in idx),
        )
    series = [arm_costs[choice[regimes[e]]][e] for e in range(n)]
    return series, choice


def regret_series(costs, oracle) -> tuple[list[float], float]:
    """Per-epoch cumulative regret of a policy vs the oracle series."""
    if len(costs) != len(oracle):
        raise ConfigurationError("cost and oracle series must align")
    out: list[float] = []
    acc = 0.0
    for c, o in zip(costs, oracle):
        acc += c - o
        out.append(acc)
    return out, acc


# -- the closed-loop replay engine -------------------------------------------------


def _incast_traffic(topology, scenario, epoch: int):
    """The epoch's synchronized fan-in overlay (incast scenarios)."""
    import numpy as np

    from ..flows.flow import Flow, FlowClass
    from ..flows.traffic import TrafficSet

    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=[scenario.seed & 0xFFFFFFFF, 0x17CA, epoch]
        )
    )
    hosts = topology.hosts
    edges = tuple(sorted({topology.attachment_switch(h) for h in hosts}))
    target = edges[int(rng.integers(0, len(edges)))]
    victims = [h for h in hosts if topology.attachment_switch(h) == target]
    sources = [h for h in hosts if topology.attachment_switch(h) != target]
    fanin = min(scenario.incast_fanin, len(sources))
    picked = rng.choice(len(sources), size=fanin, replace=False)
    cap = topology.capacity(victims[0], target)
    per_flow = scenario.incast_demand_fraction * cap / fanin
    flows = [
        Flow(
            flow_id=f"incast-e{epoch}-{i}",
            src=sources[int(j)],
            dst=victims[i % len(victims)],
            demand_bps=per_flow,
            flow_class=FlowClass.LATENCY_TOLERANT,
        )
        for i, j in enumerate(picked)
    ]
    return TrafficSet(flows)


def replay_scenario(
    scenario,
    policy,
    *,
    arity: int = 4,
    k_max: float = 4.0,
    epoch_s: float = 600.0,
    n_polls: int = 8,
    n_latency_samples: int = 40,
    seed: int = 0,
    sla_penalty_j: float = 4e5,
    guardrail_on: bool = True,
    surrogate: ServerSurrogate | None = None,
) -> dict:
    """Replay one adversarial scenario under one policy, closed loop.

    Per epoch: churned background + (scaled) query flows + any incast
    overlay form the true traffic; faults recover/land through the
    repair ladder; the policy proposes an operating point, which the
    controller adopts unless the guardrail just acted; the optimizer
    runs on what the (possibly degraded) monitor believes; ground-truth
    network tail is measured on the committed routing and fed to the
    watchdog; the server surrogate prices the governor at the epoch's
    true load; cost = energy + penalty·violation flows back into the
    policy.  Everything is rebuilt deterministically from
    ``(scenario, policy, seed)``, so replays are bit-identical anywhere.
    """
    import numpy as np

    from ..consolidation.heuristic import GreedyConsolidator
    from ..errors import InfeasibleError
    from ..faults import FaultInjector
    from ..flows.dynamics import FlowChurnModel
    from ..flows.traffic import TrafficSet
    from ..netsim.network import NetworkModel
    from ..telemetry import DegradedStatsCollector, TelemetryProfile
    from ..topology.fattree import FatTree
    from ..workloads.search import SearchWorkload
    from .controller import SdnController
    from .guardrail import SlaGuardrail
    from .kcontrol import ScaleFactorController
    from .monitor import TrafficMonitor

    workload = SearchWorkload(FatTree(arity))
    topo = workload.topology
    budget_s = workload.network_budget_s
    constraint_s = workload.latency_constraint_s

    first = policy.propose({})
    profile = scenario.telemetry if scenario.telemetry is not None else TelemetryProfile()
    collector = DegradedStatsCollector(topo, profile)
    monitor = TrafficMonitor(
        window=n_polls, staleness_inflation=first.staleness_inflation
    )
    guardrail = None
    if guardrail_on:
        guardrail = SlaGuardrail(
            budget_s,
            kcontrol=ScaleFactorController(budget_s, k_initial=first.k, k_max=k_max),
        )
    controller = SdnController(
        GreedyConsolidator(topo),
        scale_factor=first.k,
        guardrail=guardrail,
        monitor=monitor,
    )
    churn = FlowChurnModel(topo, seed_or_rng=ensure_rng(seed))
    injector = None
    if scenario.faults is not None:
        injector = FaultInjector(
            topo, scenario.faults.schedule(topo, scenario.n_epochs)
        )
    surrogate = surrogate if surrogate is not None else ServerSurrogate()
    query = workload.query_flows()
    incast_set = frozenset(scenario.incast_epochs)

    costs: list[float] = []
    energies: list[float] = []
    violated_flags: list[bool] = []
    net_tails_ms: list[float] = []
    server_tails_ms: list[float] = []
    ks: list[float] = []
    governors: list[str] = []
    applied_count = deferred_adopt = deferred_epochs = unrecovered = 0
    prev_births = prev_deaths = 0
    prev_transition_j = 0.0
    network_watts = topo.n_switches * controller.consolidator.switch_model.power(True)
    context: dict = {}

    for epoch in range(scenario.n_epochs):
        bg = scenario.background_utilization[epoch]
        load = scenario.search_load[epoch]
        true_traffic = query.merged_with(churn.advance(bg))
        if epoch in incast_set:
            true_traffic = true_traffic.merged_with(
                _incast_traffic(topo, scenario, epoch)
            )
        update = injector.advance(epoch) if injector is not None else None
        if update is not None and update.any_recoveries:
            controller.handle_recoveries(
                update.recovered_switches, update.recovered_links
            )

        point = policy.propose(context)
        if getattr(policy, "adaptive", True):
            if controller.apply_operating_point(point):
                applied_count += 1
            else:
                deferred_adopt += 1
                point = OperatingPoint(
                    k=controller.scale_factor,
                    governor=point.governor,
                    staleness_inflation=monitor.staleness_inflation,
                )

        try:
            out = controller.run_epoch(true_traffic)
            if out.committed:
                network_watts = out.result.objective_watts
        except InfeasibleError:
            deferred_epochs += 1

        net_tail_s = 0.0
        if controller.current_routing is not None:
            # An uncommitted epoch (guardrail reject / infeasible solve)
            # keeps a routing that predates this epoch's churn arrivals;
            # the truth model measures what the fabric actually carries.
            routing = controller.current_routing
            carried = TrafficSet(
                [f for f in true_traffic if f.flow_id in routing]
            )
            truth = NetworkModel(topo, carried, routing)
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=[seed & 0xFFFFFFFF, 0xADA7, epoch]
                )
            )
            net_tail_s = truth.query_latency_summary(
                n_per_flow=n_latency_samples, seed_or_rng=rng
            ).p95
            if guardrail is not None and math.isfinite(net_tail_s):
                controller.observe_sla(net_tail_s)

        server_watts, server_tail_s = surrogate.step(point.governor, load)
        combined_s = net_tail_s + server_tail_s
        violated = net_tail_s > budget_s or combined_s > constraint_s

        transition_j = controller.transition_energy_joules - prev_transition_j
        prev_transition_j = controller.transition_energy_joules
        energy_j = (
            epoch_s * (network_watts + topo.n_hosts * server_watts) + transition_j
        )
        cost_j = energy_j + (sla_penalty_j if violated else 0.0)
        policy.observe(cost_j, context)

        if update is not None and update.any_failures:
            try:
                controller.handle_failures(
                    true_traffic,
                    switches=update.failed_switches,
                    links=update.failed_links,
                )
            except InfeasibleError:
                unrecovered += 1
        # Telemetry for this epoch arrives during it — the next epoch's
        # optimization (and the next proposal's context) sees it.
        collector.feed(monitor, epoch, true_traffic, n_polls=n_polls)

        acct = collector.accounting()
        degraded = (
            (acct["polls_lost"] + acct["polls_stale"]) / acct["polls_total"]
            if acct["polls_total"]
            else 0.0
        )
        churn_events = (churn.births - prev_births) + (churn.deaths - prev_deaths)
        prev_births, prev_deaths = churn.births, churn.deaths
        context = {
            "tail_s": combined_s,
            "net_tail_s": net_tail_s,
            "violated": violated,
            "point": point,
            "degraded_fraction": degraded,
            "churn_fraction": churn_events / max(churn.n_flows, 1),
        }

        costs.append(cost_j)
        energies.append(energy_j)
        violated_flags.append(violated)
        net_tails_ms.append(1e3 * net_tail_s)
        server_tails_ms.append(1e3 * server_tail_s)
        ks.append(controller.scale_factor)
        governors.append(point.governor)

    return {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "fingerprint": scenario.fingerprint(),
        "policy": policy.name,
        "epochs": scenario.n_epochs,
        "regimes": tuple(scenario.regimes),
        "costs_j": tuple(costs),
        "energy_j": tuple(energies),
        "violated": tuple(violated_flags),
        "net_tail_ms": tuple(net_tails_ms),
        "server_tail_ms": tuple(server_tails_ms),
        "k_series": tuple(ks),
        "governor_series": tuple(governors),
        "total_cost_j": sum(costs),
        "total_energy_j": sum(energies),
        "violation_epochs": sum(violated_flags),
        "adaptive_applied": applied_count,
        "adaptive_deferred": deferred_adopt,
        "deferred_epochs": deferred_epochs,
        "unrecovered_notifications": unrecovered,
        "transition_energy_j": controller.transition_energy_joules,
        "counters": controller.telemetry_counters(),
    }
