"""Fault injection, subnet surgery, repair ladder, resilience metrics."""

from __future__ import annotations

import pickle

import pytest

from repro.consolidation import (
    GreedyConsolidator,
    MilpConsolidator,
    local_repair,
    stranded_flows,
    validate_exclusions,
)
from repro.consolidation.heuristic import route_on_subnet
from repro.control import SWITCH_POWER_ON_S, SdnController
from repro.errors import ConfigurationError, InfeasibleError
from repro.faults import (
    DETECTION_S,
    REPAIR_LOCAL,
    REPAIR_NONE,
    REPAIR_RECONSOLIDATE,
    REPAIR_SAFE_MODE,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.flows import combined_traffic
from tests.oracles.network import ReferenceGreedyConsolidator


@pytest.fixture()
def light_traffic(ft4):
    """Low enough load that a link failure is locally repairable."""
    return combined_traffic(
        ft4, aggregator=sorted(ft4.hosts)[0], background_utilization=0.15,
        seed_or_rng=1,
    )


def make_controller(ft4, k=1.5, **kw):
    return SdnController(GreedyConsolidator(ft4), scale_factor=k, **kw)


# -- schedules ---------------------------------------------------------------------


class TestFaultSchedule:
    def test_generation_is_seed_deterministic(self, ft4):
        kw = dict(switch_fail_prob=0.05, link_fail_prob=0.05)
        a = FaultSchedule.generate(ft4, 20, seed=3, **kw)
        b = FaultSchedule.generate(ft4, 20, seed=3, **kw)
        c = FaultSchedule.generate(ft4, 20, seed=4, **kw)
        assert a == b
        assert len(a) > 0
        assert a != c

    def test_schedule_pickles(self, ft4):
        s = FaultSchedule.generate(ft4, 10, switch_fail_prob=0.1, seed=1)
        assert pickle.loads(pickle.dumps(s)) == s

    def test_double_fail_rejected(self):
        with pytest.raises(ConfigurationError, match="fails twice"):
            FaultSchedule(
                [
                    FaultEvent(0, "switch", "c0_0", "fail"),
                    FaultEvent(1, "switch", "c0_0", "fail"),
                ]
            )

    def test_recover_before_fail_rejected(self):
        with pytest.raises(ConfigurationError, match="recovers before"):
            FaultSchedule([FaultEvent(0, "switch", "c0_0", "recover")])

    def test_fail_recover_cycle_allowed(self):
        s = FaultSchedule(
            [
                FaultEvent(0, "switch", "c0_0", "fail"),
                FaultEvent(2, "switch", "c0_0", "recover"),
                FaultEvent(3, "switch", "c0_0", "fail"),
            ]
        )
        assert s.n_failures == 2
        assert len(s.events_at(2)) == 1

    def test_generator_validates_probabilities(self, ft4):
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(ft4, 10, switch_fail_prob=1.5)
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(ft4, 0)

    def test_generated_failures_eventually_recover(self, ft4):
        s = FaultSchedule.generate(
            ft4, 30, switch_fail_prob=0.1, link_fail_prob=0.1, seed=2
        )
        fails = sum(1 for e in s if e.action == "fail")
        recovers = sum(1 for e in s if e.action == "recover")
        assert fails == recovers > 0


# -- injector ----------------------------------------------------------------------


class TestFaultInjector:
    def test_rejects_edge_switch_and_access_link(self, ft4):
        edge = sorted(s for s in ft4.switches if s.startswith("e"))[0]
        host = sorted(ft4.hosts)[0]
        with pytest.raises(ConfigurationError, match="not injectable"):
            FaultInjector(ft4, FaultSchedule([FaultEvent(0, "switch", edge, "fail")]))
        attach = ft4.attachment_switch(host)
        with pytest.raises(ConfigurationError, match="not injectable"):
            FaultInjector(
                ft4,
                FaultSchedule([FaultEvent(0, "link", (host, attach), "fail")]),
            )

    def test_replay_is_deterministic(self, ft4):
        s = FaultSchedule.generate(
            ft4, 15, switch_fail_prob=0.08, link_fail_prob=0.08, seed=5
        )
        a, b = FaultInjector(ft4, s), FaultInjector(ft4, s)
        for epoch in range(15):
            assert a.advance(epoch) == b.advance(epoch)
        assert a.failed_switches == b.failed_switches
        assert a.failed_links == b.failed_links

    def test_tracks_failed_then_recovered(self, ft4):
        s = FaultSchedule(
            [
                FaultEvent(0, "switch", "c0_0", "fail"),
                FaultEvent(2, "switch", "c0_0", "recover"),
            ]
        )
        inj = FaultInjector(ft4, s)
        up0 = inj.advance(0)
        assert up0.any_failures and inj.failed_switches == {"c0_0"}
        assert not inj.advance(1).any_failures
        up2 = inj.advance(2)
        assert up2.any_recoveries and not inj.failed_switches

    def test_epochs_must_increase(self, ft4):
        inj = FaultInjector(ft4, FaultSchedule())
        inj.advance(3)
        with pytest.raises(ConfigurationError):
            inj.advance(3)


# -- subnet surgery ----------------------------------------------------------------


class TestSubnetSurgery:
    def test_without_removes_switch_and_cascades(self, ft4, mixed_traffic):
        result = GreedyConsolidator(ft4).consolidate(mixed_traffic, 1.5)
        sub = result.subnet
        victim = sorted(s for s in sub.switches_on if s.startswith("c"))[0]
        pruned = sub.without(switches=[victim])
        assert victim not in pruned.switches_on
        assert all(victim not in link for link in pruned.links_on)
        # No switch may be left on with zero on-links.
        for sw in pruned.switches_on:
            assert any(sw in link for link in pruned.links_on)

    def test_without_attachment_link_raises(self, ft4):
        full = ft4.full_subnet()
        host = sorted(ft4.hosts)[0]
        attach = ft4.attachment_switch(host)
        with pytest.raises(ConfigurationError):
            full.without(links=[(host, attach)])

    def test_without_nothing_is_identity(self, ft4):
        full = ft4.full_subnet()
        pruned = full.without()
        assert pruned.switches_on == full.switches_on
        assert pruned.links_on == full.links_on


# -- exclusion-aware consolidation -------------------------------------------------


class TestExclusions:
    def test_validate_rejects_unknown_and_attachment(self, ft4):
        with pytest.raises(ConfigurationError):
            validate_exclusions(ft4, switches=["nope"], links=[])
        host = sorted(ft4.hosts)[0]
        attach = ft4.attachment_switch(host)
        with pytest.raises(ConfigurationError):
            validate_exclusions(ft4, switches=[attach], links=[])

    def test_greedy_honors_exclusions_both_engines(self, ft4, mixed_traffic):
        excluded = frozenset({"c0_0"})
        results = {}
        for name, cls in (
            ("production", GreedyConsolidator),
            ("oracle", ReferenceGreedyConsolidator),
        ):
            r = cls(ft4).consolidate(mixed_traffic, 1.5, excluded_switches=excluded)
            assert "c0_0" not in r.subnet.switches_on
            assert all("c0_0" not in path for _, path in r.routing.items())
            results[name] = r
        assert dict(results["production"].routing.items()) == dict(
            results["oracle"].routing.items()
        )
        assert results["production"].subnet.switches_on == results[
            "oracle"
        ].subnet.switches_on

    def test_milp_honors_exclusions(self, ft4):
        traffic = combined_traffic(
            ft4, aggregator=sorted(ft4.hosts)[0], background_utilization=0.05,
            seed_or_rng=1,
        )
        m = MilpConsolidator(ft4)
        r = m.consolidate(traffic, 1.0, excluded_switches=frozenset({"c0_0"}))
        assert "c0_0" not in r.subnet.switches_on
        assert all("c0_0" not in path for _, path in r.routing.items())


# -- local repair ------------------------------------------------------------------


class TestLocalRepair:
    def test_stranded_detection(self, ft4, mixed_traffic):
        result = GreedyConsolidator(ft4).consolidate(mixed_traffic, 1.5)
        victim = sorted(s for s in result.subnet.switches_on if s.startswith("c"))[0]
        degraded = result.subnet.without(switches=[victim])
        stranded = stranded_flows(mixed_traffic, result.routing, degraded)
        assert stranded
        for fid in stranded:
            assert victim in result.routing.path(fid)
        # A flow absent from the routing is stranded by definition.
        assert stranded_flows(mixed_traffic, None, degraded) == tuple(
            f.flow_id for f in mixed_traffic
        )

    def test_repair_on_redundant_subnet(self, ft4, mixed_traffic):
        base = route_on_subnet(ft4.full_subnet(), mixed_traffic)
        link = next(
            link
            for _, path in base.routing.items()
            for link in zip(path[:-1], path[1:])
            if ft4.is_switch(link[0]) and ft4.is_switch(link[1])
        )
        degraded = base.subnet.without(links=[link])
        repair = local_repair(
            degraded, mixed_traffic, base.routing,
            failed_links=frozenset([link]),
        )
        assert repair.n_repaired > 0
        assert repair.subnet.switches_on == degraded.switches_on  # no boots
        canon = tuple(sorted(link))
        for _, path in repair.routing.items():
            assert all(tuple(sorted(hop)) != canon
                       for hop in zip(path[:-1], path[1:]))

    def test_repair_infeasible_on_saturated_minimal_subnet(self, ft4, mixed_traffic):
        result = GreedyConsolidator(ft4).consolidate(mixed_traffic, 1.5)
        link = sorted(
            l for l in result.subnet.links_on
            if ft4.is_switch(l[0]) and ft4.is_switch(l[1]) and "c" in l[1]
        )[0]
        degraded = result.subnet.without(links=[link])
        with pytest.raises(InfeasibleError):
            local_repair(
                degraded, mixed_traffic, result.routing,
                failed_links=frozenset([link]),
            )


# -- the controller ladder ---------------------------------------------------------


class TestControllerFailures:
    def test_local_repair_path(self, ft4, light_traffic):
        ctrl = make_controller(ft4)
        ctrl.run_epoch(light_traffic)
        out = ctrl.handle_failures(light_traffic, links=[("a0_0", "c0_1")])
        assert out.mode == REPAIR_LOCAL
        assert out.n_stranded == out.n_rerouted > 0
        assert not out.booted
        assert out.transition_energy_j == 0.0
        assert out.recovery_s < 5.0  # rule-install fast, no 72.52 s boot
        assert out.recovery_s == pytest.approx(
            DETECTION_S + out.rule_changes * 0.005
        )
        # Every offered flow is routed on live devices afterwards.
        assert not stranded_flows(light_traffic, ctrl.current_routing,
                                  ctrl.current_subnet)

    def test_reconsolidation_path(self, ft4, mixed_traffic):
        ctrl = make_controller(ft4)
        ctrl.run_epoch(mixed_traffic)
        victim = sorted(
            s for s in ctrl.current_subnet.switches_on if s.startswith("c")
        )[0]
        out = ctrl.handle_failures(mixed_traffic, switches=[victim])
        assert out.mode == REPAIR_RECONSOLIDATE
        assert out.booted
        assert out.recovery_s > SWITCH_POWER_ON_S
        assert out.transition_energy_j > 0.0
        assert victim not in ctrl.current_subnet.switches_on
        # The next epoch keeps routing around the dead switch …
        nxt = ctrl.run_epoch(mixed_traffic)
        assert victim not in nxt.result.subnet.switches_on
        # … until it recovers.
        ctrl.handle_recoveries(switches=[victim])
        assert not ctrl.failed_switches

    def test_safe_mode_escalation(self, ft4, mixed_traffic, monkeypatch):
        ctrl = make_controller(ft4)
        ctrl.run_epoch(mixed_traffic)

        def no_solve(predicted):
            raise InfeasibleError("forced for test")

        monkeypatch.setattr(ctrl, "_solve", no_solve)
        # This link failure saturates local repair (see TestLocalRepair),
        # and the consolidator is forced infeasible: safe mode must catch.
        link = sorted(
            l for l in ctrl.current_subnet.links_on
            if ft4.is_switch(l[0]) and ft4.is_switch(l[1]) and "c" in l[1]
        )[0]
        out = ctrl.handle_failures(mixed_traffic, links=[link])
        assert out.mode == REPAIR_SAFE_MODE
        assert ctrl.current_subnet.n_switches_on == len(ft4.switches)
        assert not stranded_flows(mixed_traffic, ctrl.current_routing,
                                  ctrl.current_subnet)

    def test_failure_missing_nothing_is_cheap(self, ft4, mixed_traffic):
        ctrl = make_controller(ft4)
        ctrl.run_epoch(mixed_traffic)
        dark = next(
            l for l in sorted(ft4.links)
            if ft4.is_switch(l[0]) and ft4.is_switch(l[1])
            and not ctrl.current_subnet.is_link_on(*l)
        )
        out = ctrl.handle_failures(mixed_traffic, links=[dark])
        assert out.mode == REPAIR_NONE
        assert out.n_stranded == 0
        assert out.recovery_s == DETECTION_S
        assert out.rule_changes == 0

    def test_failure_before_first_epoch(self, ft4, mixed_traffic):
        ctrl = make_controller(ft4)
        out = ctrl.handle_failures(mixed_traffic, switches=["c0_0"])
        assert out.mode == REPAIR_NONE
        assert ctrl.failed_switches == {"c0_0"}
        first = ctrl.run_epoch(mixed_traffic)
        assert "c0_0" not in first.result.subnet.switches_on

    def test_resilience_log_accounting(self, ft4, light_traffic, mixed_traffic):
        ctrl = make_controller(ft4)
        ctrl.run_epoch(light_traffic)
        ctrl.handle_failures(light_traffic, links=[("a0_0", "c0_1")])
        victim = sorted(
            s for s in ctrl.current_subnet.switches_on if s.startswith("c")
        )[0]
        ctrl.handle_failures(light_traffic, switches=[victim])
        log = ctrl.resilience
        assert len(log) == 2
        s = log.summary()
        assert s["n_notifications"] == 2
        assert s["n_repairs"] == log.count(REPAIR_LOCAL) + log.count(
            REPAIR_RECONSOLIDATE
        ) + log.count(REPAIR_SAFE_MODE)
        assert s["total_stranded"] == sum(o.n_stranded for o in log.outcomes)
        assert s["max_recovery_s"] >= s["mean_recovery_s"] > 0.0
        assert s["transition_energy_j"] == pytest.approx(
            sum(o.transition_energy_j for o in log.outcomes)
        )
