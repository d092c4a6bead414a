"""The centralized SDN controller loop (Fig. 7's Optimizer + Path &
Power controller).

Epoch cycle (Section II / IV-C):

1. the :class:`~repro.control.monitor.TrafficMonitor` has been fed 2-s
   rate polls all epoch;
2. every optimization period (10 min in the paper) the controller
   predicts next-epoch demands, re-runs latency-aware consolidation at
   the configured scale factor, and
3. emits a :class:`~repro.control.rules.ReconfigurationPlan` — the
   OpenFlow rule churn plus switch/link power commands — and adopts the
   new state.

Switch power-on transitions are counted (the paper measures 72.52 s
power-on on an HPE switch and sidesteps it with backup paths; we expose
the transition count so experiments can quantify how much churn a
policy causes).

Mid-epoch device failures enter through :meth:`SdnController.handle_failures`,
which walks a graceful-degradation ladder:

1. **local repair** — prune the dead devices from the active subnet and
   re-route stranded flows over surviving powered-on switches (dark
   ports may be lit; no switch boots, so recovery is rule-install
   fast);
2. **re-consolidation** — a full solve on the surviving topology
   (standby switches may boot, paying the 72.52 s power-on);
3. **safe mode** — every healthy device on (the ElasticTree-style
   all-on fabric), routing at K=1.

Each rung is only tried when the one above is infeasible; every
notification is recorded in a :class:`~repro.faults.ResilienceLog`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..consolidation.base import ConsolidationResult, Consolidator
from ..consolidation.repair import local_repair, stranded_flows
from ..errors import ConfigurationError, InfeasibleError
from ..faults.metrics import (
    DETECTION_S,
    REPAIR_LOCAL,
    REPAIR_NONE,
    REPAIR_RECONSOLIDATE,
    REPAIR_SAFE_MODE,
    RULE_INSTALL_S,
    RepairOutcome,
    ResilienceLog,
)
from ..flows.traffic import TrafficSet
from ..netsim.network import NetworkModel, Routing
from ..topology.graph import ActiveSubnet, canonical_link
from .guardrail import (
    GUARD_ESCALATE,
    GUARD_HELD,
    GUARD_NONE,
    GUARD_REJECTED,
    GUARD_ROLLBACK,
    GUARD_VIOLATION,
    GuardrailDecision,
    SlaGuardrail,
)
from .monitor import TrafficMonitor
from .rules import DeviceCommands, ReconfigurationPlan, diff_routings, diff_subnets

__all__ = ["EpochOutcome", "SdnController"]

#: Measured HPE E3800 power-on latency (Section IV-B).
SWITCH_POWER_ON_S = 72.52


@dataclass(frozen=True)
class EpochOutcome:
    """What one optimization epoch decided.

    ``requested_scale_factor`` is the controller's configured K;
    :attr:`effective_scale_factor` is the K the adopted solution was
    actually packed at — lower when the heuristic degraded the scale to
    fit, and 1.0 when the exact-MILP fallback (``milp_fallback``)
    rescued an epoch the greedy could not pack.  K-sweep figures must
    attribute epochs by the effective value.
    """

    epoch: int
    result: ConsolidationResult
    plan: ReconfigurationPlan
    predicted_total_demand_bps: float
    requested_scale_factor: float = 0.0
    milp_fallback: bool = False
    #: What the SLA guardrail's admission gate did: ``"none"`` (no
    #: guardrail / first epoch), ``"committed"``, ``"rejected"`` (the
    #: observed-demand replay failed; the previous configuration was
    #: retained) or ``"held"`` (cooldown refused a shrinking commit).
    guardrail_action: str = GUARD_NONE
    #: Most-loaded directed link when the observed demand was replayed
    #: on the candidate routing (0.0 when no replay ran).
    admission_utilization: float = 0.0
    #: Per-epoch :class:`~repro.consolidation.delta.DeltaStats` when the
    #: controller runs in ``mode="delta"``; ``None`` in full mode.
    delta_stats: object | None = None

    @property
    def committed(self) -> bool:
        """False when the guardrail kept the previous configuration."""
        return self.guardrail_action not in (GUARD_REJECTED, GUARD_HELD)

    @property
    def effective_scale_factor(self) -> float:
        return self.result.scale_factor

    @property
    def scale_degraded(self) -> bool:
        return self.result.scale_factor != self.requested_scale_factor


class SdnController:
    """Periodic re-optimization driver over a consolidator.

    Parameters
    ----------
    consolidator:
        The optimizer (MILP or greedy) used each epoch.
    scale_factor:
        The latency-aware scale factor ``K`` applied to
        latency-sensitive reservations; adjustable between epochs via
        :meth:`set_scale_factor` (the joint optimizer tunes it).
    optimization_period_s:
        Seconds between optimizer runs (600 in the paper).
    mode:
        ``"full"`` (default) re-solves every epoch from scratch;
        ``"delta"`` wraps the consolidator in a
        :class:`~repro.consolidation.delta.DeltaConsolidator` so epoch
        cost scales with traffic churn instead of flow count.  Delta
        mode requires a greedy consolidator (or an already-built
        :class:`DeltaConsolidator`); the ``delta_*`` knobs configure
        its fallback policy.
    """

    MODES = ("full", "delta")

    def __init__(
        self,
        consolidator: Consolidator,
        scale_factor: float = 1.0,
        optimization_period_s: float = 600.0,
        best_effort_scale: bool = True,
        milp_fallback_time_limit_s: float | None = None,
        guardrail: SlaGuardrail | None = None,
        monitor: TrafficMonitor | None = None,
        mode: str = "full",
        delta_drift_bound: float = 0.25,
        delta_max_churn_fraction: float = 0.5,
        delta_full_refresh_epochs: int | None = None,
    ):
        if scale_factor < 1.0:
            raise ConfigurationError(f"scale factor must be >= 1, got {scale_factor}")
        if optimization_period_s <= 0:
            raise ConfigurationError("optimization period must be positive")
        if mode not in self.MODES:
            raise ConfigurationError(f"unknown mode {mode!r}; known: {self.MODES}")
        self.mode = mode
        self._delta = None
        if mode == "delta":
            from ..consolidation.delta import DeltaConsolidator

            if isinstance(consolidator, DeltaConsolidator):
                self._delta = consolidator
                consolidator = consolidator.inner
            else:
                # DeltaConsolidator validates that this is a
                # GreedyConsolidator.
                self._delta = DeltaConsolidator(
                    consolidator,
                    drift_bound=delta_drift_bound,
                    max_churn_fraction=delta_max_churn_fraction,
                    full_refresh_epochs=delta_full_refresh_epochs,
                )
        self.consolidator = consolidator
        self.scale_factor = scale_factor
        self.optimization_period_s = optimization_period_s
        self.best_effort_scale = best_effort_scale
        #: With a time limit set, an epoch the heuristic cannot pack is
        #: retried with the exact MILP at K=1 before being rejected —
        #: the "run the LP when the greedy strands a flow" deployment
        #: pattern.  Off by default (MILP solves can take seconds).
        self.milp_fallback_time_limit_s = milp_fallback_time_limit_s
        self.milp_fallback_count = 0
        self.monitor = monitor if monitor is not None else TrafficMonitor()
        #: Optional SLA guardrail; ``None`` (the default) commits every
        #: solution unconditionally — the historical behaviour.
        self.guardrail = guardrail
        self._epoch = 0
        self._routing: Routing | None = None
        self._subnet: ActiveSubnet | None = None
        self._result: ConsolidationResult | None = None
        self.switch_power_on_count = 0
        self.transition_energy_joules = 0.0
        #: Devices currently known-failed; every solve routes around them.
        self.failed_switches: set[str] = set()
        self.failed_links: set[tuple[str, str]] = set()
        self.resilience = ResilienceLog()
        self.adaptive_applied = 0
        self.adaptive_deferred = 0

    # -- state ---------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def current_routing(self) -> Routing | None:
        return self._routing

    @property
    def current_subnet(self) -> ActiveSubnet | None:
        return self._subnet

    @property
    def delta(self):
        """The :class:`~repro.consolidation.delta.DeltaConsolidator`
        driving epochs in ``mode="delta"`` (``None`` in full mode)."""
        return self._delta

    def telemetry_counters(self) -> dict:
        """Monitor + controller + delta-engine counters, one payload.

        Extends the monitor's gap/eviction accounting with the
        controller's transition/fallback tallies and — in delta mode —
        the delta engine's epoch/fallback breakdown under ``"delta"``.
        """
        out = self.monitor.telemetry_counters()
        out["milp_fallbacks"] = self.milp_fallback_count
        out["switch_power_ons"] = self.switch_power_on_count
        if self._delta is not None:
            out["delta"] = self._delta.counters()
        if self.guardrail is not None:
            out["guardrail"] = self.guardrail.summary()
            if self.guardrail.kcontrol is not None:
                out["kcontrol"] = self.guardrail.kcontrol.counters()
        if self.adaptive_applied or self.adaptive_deferred:
            out["adaptive"] = {
                "applied": self.adaptive_applied,
                "deferred": self.adaptive_deferred,
            }
        return out

    def set_scale_factor(self, k: float) -> None:
        """Adopt a new scale factor for subsequent epochs (the joint
        optimizer's knob, Fig. 6)."""
        if k < 1.0:
            raise ConfigurationError(f"scale factor must be >= 1, got {k}")
        self.scale_factor = k

    def apply_operating_point(self, point) -> bool:
        """Adopt an adaptive layer's (K, staleness_inflation) proposal.

        ``point`` duck-types :class:`~repro.control.adaptive.OperatingPoint`
        (``k`` and ``staleness_inflation`` attributes; the governor knob
        is consumed server-side, outside this controller).  Returns
        whether the proposal was adopted.  The adaptive layer yields to
        the guardrail rather than fighting it: a proposal that *shrinks*
        K is deferred while the watchdog has just rolled back or
        escalated, or while its cooldown is still running — the
        watchdog raised headroom for a reason, and the admission gate
        would refuse the shrinking commit anyway.  A proposal moving
        the same direction (K at least the value in force) supersedes
        the watchdog's own adjustment, so exactly one K change lands
        per epoch either way.

        An adopted K is synced into the guardrail's kcontrol
        (:meth:`~repro.control.kcontrol.ScaleFactorController.sync`),
        keeping later escalations stepping from the K actually in
        force.  The guardrail's rollback target is never touched.
        """
        g = self.guardrail
        if g is not None and point.k < self.scale_factor:
            last = g.decisions[-1] if g.decisions else None
            watchdog_acted = (
                last is not None
                and last.epoch == self._epoch - 1
                and last.action in (GUARD_ROLLBACK, GUARD_ESCALATE)
            )
            if watchdog_acted or g.in_cooldown:
                self.adaptive_deferred += 1
                return False
        self.monitor.staleness_inflation = float(point.staleness_inflation)
        if point.k != self.scale_factor:
            if g is not None and g.kcontrol is not None:
                g.kcontrol.sync(point.k)
            self.set_scale_factor(point.k)
        self.adaptive_applied += 1
        return True

    def transition_downtime_s(self) -> float:
        """Cumulative switch power-on latency incurred so far."""
        return self.switch_power_on_count * SWITCH_POWER_ON_S

    # -- transition accounting --------------------------------------------------------

    def _charge_transitions(self, devices: DeviceCommands) -> float:
        """Count power-ons and charge boot-overlap energy (Section IV-B).

        A switch draws power for the full 72.52 s boot before it can
        forward, and the backup-path mitigation keeps the switches
        being retired alive over the same interval — but only while a
        power-on is actually in flight.  An epoch that merely turns
        switches *off* hands traffic to already-forwarding paths
        immediately and retires the rest at once: no boot, no overlap,
        no transition charge.
        """
        n_on = len(devices.switches_to_on)
        self.switch_power_on_count += n_on
        if n_on == 0:
            return 0.0
        switch_watts = self.consolidator.switch_model.power(True)
        overlap = n_on + len(devices.switches_to_off)
        joules = overlap * switch_watts * SWITCH_POWER_ON_S
        self.transition_energy_joules += joules
        return joules

    # -- the epoch step ---------------------------------------------------------------

    def _solve(self, predicted: TrafficSet) -> tuple[ConsolidationResult, bool]:
        """One consolidation solve honouring the failed-device set.

        Returns ``(result, used_milp_fallback)``.
        """
        kwargs = {}
        from ..consolidation.heuristic import GreedyConsolidator

        if isinstance(self.consolidator, GreedyConsolidator):
            kwargs["best_effort_scale"] = self.best_effort_scale
        if self.failed_switches or self.failed_links:
            kwargs["excluded_switches"] = frozenset(self.failed_switches)
            kwargs["excluded_links"] = frozenset(self.failed_links)
        solver = self._delta if self._delta is not None else self.consolidator
        try:
            return solver.consolidate(predicted, self.scale_factor, **kwargs), False
        except InfeasibleError:
            if self.milp_fallback_time_limit_s is None:
                raise
            from ..consolidation.milp import MilpConsolidator

            fallback = MilpConsolidator(
                self.consolidator.topology,
                safety_margin_bps=self.consolidator.safety_margin_bps,
                switch_model=self.consolidator.switch_model,
                link_model=self.consolidator.link_model,
                time_limit_s=self.milp_fallback_time_limit_s,
            )
            result = fallback.consolidate(
                predicted,
                1.0,
                excluded_switches=frozenset(self.failed_switches),
                excluded_links=frozenset(self.failed_links),
            )
            self.milp_fallback_count += 1
            if self._delta is not None:
                # The adopted routing came from the MILP, not the delta
                # engine's packing state — its warm start is stale.
                self._delta.invalidate("milp_fallback")
            return result, True

    def run_epoch(self, offered_traffic: TrafficSet) -> EpochOutcome:
        """Execute one optimization epoch.

        ``offered_traffic`` carries each flow's configured demand; where
        the monitor has observations, the 90th-percentile prediction
        replaces it.  Raises
        :class:`~repro.errors.InfeasibleError` if the instance cannot be
        packed even at K=1 (with ``best_effort_scale``) or at the
        configured K (without).
        """
        # Departed flows' predictors would otherwise accumulate without
        # bound under churn — their stats are stale the moment the flow
        # leaves, so drop them before predicting.
        self.monitor.prune(flow.flow_id for flow in offered_traffic)
        predicted = self.monitor.predicted_traffic(offered_traffic)
        result, used_fallback = self._solve(predicted)

        guard_action = GUARD_NONE
        admission_util = 0.0
        if (
            self.guardrail is not None
            and self._routing is not None
            and self._subnet is not None
        ):
            admission_util = self._replay_max_utilization(
                offered_traffic, result.routing
            )
            guard_action = self.guardrail.admit(
                admission_util,
                result.subnet.n_switches_on,
                self._subnet.n_switches_on,
            )
            if guard_action in (GUARD_REJECTED, GUARD_HELD):
                # The candidate cannot carry the measured load (or a
                # cooldown is in force): keep the current configuration
                # untouched — an empty plan, no transitions charged.
                if self._delta is not None:
                    # The warm state now mirrors a candidate that was
                    # never installed; warm-starting the next epoch
                    # from it would keep refining a rejected plan.
                    self._delta.invalidate("uncommitted_candidate")
                outcome = EpochOutcome(
                    epoch=self._epoch,
                    result=self._result,
                    plan=ReconfigurationPlan(
                        rules=diff_routings(self._routing, self._routing),
                        devices=diff_subnets(self._subnet, self._subnet),
                    ),
                    predicted_total_demand_bps=predicted.total_demand_bps(),
                    requested_scale_factor=self.scale_factor,
                    milp_fallback=used_fallback,
                    guardrail_action=guard_action,
                    admission_utilization=admission_util,
                    delta_stats=self._delta.last_stats if self._delta else None,
                )
                self._epoch += 1
                return outcome

        plan = ReconfigurationPlan(
            rules=diff_routings(self._routing, result.routing),
            devices=diff_subnets(self._subnet, result.subnet),
        )
        # First epoch turns everything listed "on" from an assumed
        # all-on boot state; only count transitions after that.
        if self._subnet is not None:
            self._charge_transitions(plan.devices)

        self._routing = result.routing
        self._subnet = result.subnet
        self._result = result
        outcome = EpochOutcome(
            epoch=self._epoch,
            result=result,
            plan=plan,
            predicted_total_demand_bps=predicted.total_demand_bps(),
            requested_scale_factor=self.scale_factor,
            milp_fallback=used_fallback,
            guardrail_action=guard_action,
            admission_utilization=admission_util,
            delta_stats=self._delta.last_stats if self._delta else None,
        )
        self._epoch += 1
        return outcome

    # -- SLA guardrail ----------------------------------------------------------------

    def _replay_max_utilization(
        self, offered_traffic: TrafficSet, candidate: Routing
    ) -> float:
        """Replay the *observed* demand through a candidate routing.

        The admission check deliberately uses what the monitor measured
        (window means), not the prediction the candidate was solved
        from — a candidate packed against an under-prediction must
        still carry the load that was actually seen.
        """
        observed = self.monitor.observed_traffic(offered_traffic)
        model = NetworkModel(self.consolidator.topology, observed, candidate)
        return model.max_utilization()

    def observe_sla(self, measured_tail_s: float) -> GuardrailDecision:
        """Fold one epoch's measured query tail into the violation watchdog.

        Call after :meth:`run_epoch` with the tail latency the servers'
        latency monitors measured under the committed configuration.
        On a violation the watchdog restores the last-known-good
        routing (booting back any switches the bad commit turned off —
        churn charged as transition energy); a violation *at* the
        last-known-good escalates K through the guardrail's kcontrol.
        Clear measurements below the hysteresis band re-arm the
        guardrail and mark the current configuration known-good.
        """
        if measured_tail_s < 0:
            raise ConfigurationError("measured tail must be non-negative")
        g = self.guardrail
        if g is None:
            raise ConfigurationError("observe_sla() requires a guardrail")
        epoch = max(self._epoch - 1, 0)
        violated = g.is_violation(measured_tail_s)
        clear = g.is_clear(measured_tail_s)
        action = GUARD_NONE
        if violated:
            g.violation_epochs += 1
            if g.last_good is not None and g.last_good[0] is not self._routing:
                self._restore_last_good()
                g.rollbacks += 1
                action = GUARD_ROLLBACK
            else:
                # Already at (or without) a known-good configuration:
                # rolling back cannot help, so buy headroom instead.
                new_k = g.escalate_k()
                if new_k is not None:
                    self.set_scale_factor(new_k)
                    action = GUARD_ESCALATE
                else:
                    action = GUARD_VIOLATION
            g.start_cooldown()
        else:
            g.tick_cooldown(clear)
            if clear and not g.in_cooldown and self._routing is not None:
                g.last_good = (self._routing, self._subnet, self._result)
            if not g.in_cooldown and g.kcontrol is not None:
                # Closed-loop K tracking (Section II) resumes once the
                # guardrail is re-armed; this is also how K relaxes
                # back down after an escalation.
                k = g.kcontrol.update(measured_tail_s)
                if k != self.scale_factor:
                    self.set_scale_factor(k)
        decision = GuardrailDecision(
            epoch=epoch,
            measured_tail_s=measured_tail_s,
            violated=violated,
            action=action,
            k_after=self.scale_factor,
        )
        g.decisions.append(decision)
        return decision

    def _restore_last_good(self) -> None:
        """Roll the fabric back to the last-known-good configuration.

        Re-activating retired devices is a normal reconfiguration:
        power-ons are counted and boot-overlap energy charged, so
        telemetry-driven oscillation shows up in the energy ledger
        rather than hiding as free state flips.
        """
        routing, subnet, result = self.guardrail.last_good
        devices = diff_subnets(self._subnet, subnet)
        self._charge_transitions(devices)
        self._routing = routing
        self._subnet = subnet
        self._result = result
        if self._delta is not None:
            # The installed configuration just jumped to a historical
            # snapshot the delta engine never packed.
            self._delta.invalidate("rollback")

    # -- failure handling ---------------------------------------------------------------

    def handle_recoveries(self, switches=(), links=()) -> None:
        """Mark devices repaired: they become available (but stay off
        until an optimization epoch powers them back on)."""
        self.failed_switches -= set(switches)
        self.failed_links -= {canonical_link(u, v) for u, v in links}

    def _backup_switches(self, subnet: ActiveSubnet, routing: Routing) -> int:
        """Switches on in ``subnet`` that carry no routed flow — spare
        capacity deliberately kept alive."""
        used = set()
        topo = subnet.topology
        for _, path in routing.items():
            for node in path:
                if topo.is_switch(node):
                    used.add(node)
        return len(subnet.switches_on - used)

    def handle_failures(
        self, offered_traffic: TrafficSet, switches=(), links=()
    ) -> RepairOutcome:
        """Absorb a mid-epoch failure notification.

        Prunes the dead devices from the active subnet, then walks the
        degradation ladder (local repair → re-consolidation → safe
        mode) until the stranded flows of ``offered_traffic`` are all
        re-routed.  Raises :class:`~repro.errors.InfeasibleError` only
        when even the all-on safe mode cannot carry the demand.
        """
        switches = frozenset(switches)
        links = frozenset(canonical_link(u, v) for u, v in links)
        self.failed_switches |= switches
        self.failed_links |= links
        if self.guardrail is not None:
            # A known-good configuration is only good on the topology
            # it was proven on; the rollback target may route through
            # the devices that just died.
            self.guardrail.last_good = None

        if self._subnet is None or self._routing is None:
            outcome = RepairOutcome(
                epoch=self._epoch,
                mode=REPAIR_NONE,
                failed_switches=switches,
                failed_links=links,
                n_stranded=0,
                n_rerouted=0,
                n_sla_flows_hit=0,
                recovery_s=0.0,
                rule_changes=0,
                switches_powered_on=0,
                backup_switches=0,
                transition_energy_j=0.0,
            )
            self.resilience.record(outcome)
            return outcome

        degraded = self._subnet.without(switches, links)
        stranded = stranded_flows(offered_traffic, self._routing, degraded)
        n_sla_hit = sum(
            1 for fid in stranded if offered_traffic[fid].is_latency_sensitive
        )

        if not stranded:
            # Dead devices carried nothing; adopt the pruned subnet.
            self._subnet = degraded
            outcome = RepairOutcome(
                epoch=self._epoch,
                mode=REPAIR_NONE,
                failed_switches=switches,
                failed_links=links,
                n_stranded=0,
                n_rerouted=0,
                n_sla_flows_hit=0,
                recovery_s=DETECTION_S,
                rule_changes=0,
                switches_powered_on=0,
                backup_switches=self._backup_switches(degraded, self._routing),
                transition_energy_j=0.0,
            )
            self.resilience.record(outcome)
            return outcome

        old_routing = self._routing
        mode, new_routing, new_subnet = self._repair_ladder(
            offered_traffic, degraded
        )

        rule_changes = diff_routings(old_routing, new_routing).n_changes
        # Transitions are charged against the *degraded* state: the
        # failed devices are dark already, so only genuinely retired
        # survivors count as boot-overlap backups.
        devices = diff_subnets(degraded, new_subnet)
        joules = self._charge_transitions(devices)
        n_booted = len(devices.switches_to_on)
        recovery_s = (
            DETECTION_S
            + rule_changes * RULE_INSTALL_S
            + (SWITCH_POWER_ON_S if n_booted else 0.0)
        )

        self._routing = new_routing
        self._subnet = new_subnet
        outcome = RepairOutcome(
            epoch=self._epoch,
            mode=mode,
            failed_switches=switches,
            failed_links=links,
            n_stranded=len(stranded),
            n_rerouted=len(stranded),
            n_sla_flows_hit=n_sla_hit,
            recovery_s=recovery_s,
            rule_changes=rule_changes,
            switches_powered_on=n_booted,
            backup_switches=self._backup_switches(new_subnet, new_routing),
            transition_energy_j=joules,
        )
        self.resilience.record(outcome)
        return outcome

    def _repair_ladder(
        self, offered_traffic: TrafficSet, degraded: ActiveSubnet
    ) -> tuple[str, Routing, ActiveSubnet]:
        """(mode, routing, subnet) from the first rung that succeeds."""
        try:
            repair = local_repair(
                degraded,
                offered_traffic,
                self._routing,
                scale_factor=1.0,
                safety_margin_bps=self.consolidator.safety_margin_bps,
                failed_links=frozenset(self.failed_links),
            )
            if self._delta is not None:
                # Repair rewrote routes outside the delta engine's
                # packing state (re-consolidation below refreshes the
                # warm state itself, so only this rung — and safe mode
                # — invalidates).
                self._delta.invalidate("fault_repair")
            return REPAIR_LOCAL, repair.routing, repair.subnet
        except InfeasibleError:
            pass

        predicted = self.monitor.predicted_traffic(offered_traffic)
        try:
            result, _ = self._solve(predicted)
            return REPAIR_RECONSOLIDATE, result.routing, result.subnet
        except InfeasibleError:
            pass

        # Safe mode: every healthy device on, bandwidth-only routing.
        from ..consolidation.heuristic import route_on_subnet

        safe_subnet = self.consolidator.topology.full_subnet().without(
            self.failed_switches, self.failed_links
        )
        result = route_on_subnet(
            safe_subnet,
            predicted,
            scale_factor=1.0,
            safety_margin_bps=self.consolidator.safety_margin_bps,
        )
        if self._delta is not None:
            self._delta.invalidate("safe_mode")
        return REPAIR_SAFE_MODE, result.routing, result.subnet
