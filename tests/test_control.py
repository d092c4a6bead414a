"""SDN control plane: monitor, reconfiguration plans, controller loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consolidation import GreedyConsolidator
from repro.control import (
    SWITCH_POWER_ON_S,
    SdnController,
    TrafficMonitor,
    diff_routings,
    diff_subnets,
)
from repro.errors import ConfigurationError
from repro.flows import combined_traffic
from repro.netsim import Routing
from repro.topology import aggregation_policy
from tests.oracles.control import reference_diff_routings
from tests.oracles.telemetry import batch_from_dicts


class TestTrafficMonitor:
    def test_prediction_replaces_demand(self, ft4, search_traffic):
        m = TrafficMonitor(window=10)
        fid = search_traffic.flows[0].flow_id
        for rate in (5e6, 6e6, 7e6):
            m.observe(fid, rate)
        predicted = m.predicted_traffic(search_traffic)
        assert predicted[fid].demand_bps == pytest.approx(m.predicted_demand(fid))

    def test_unobserved_flows_keep_configured_demand(self, search_traffic):
        m = TrafficMonitor()
        predicted = m.predicted_traffic(search_traffic)
        for flow in search_traffic:
            assert predicted[flow.flow_id].demand_bps == flow.demand_bps

    def test_epoch_batch(self):
        m = TrafficMonitor()
        m.observe_batch(batch_from_dicts({"a": [1.0, 2.0], "b": [3.0]}, {}))
        assert m.n_tracked_flows() == 2
        assert m.has_prediction("a")

    def test_forget(self):
        m = TrafficMonitor()
        m.observe("a", 1.0)
        m.forget("a")
        assert not m.has_prediction("a")

    def test_unknown_flow_raises(self):
        with pytest.raises(ConfigurationError):
            TrafficMonitor().predicted_demand("nope")

    def test_prediction_floor_is_positive(self, search_traffic):
        """A flow observed at zero rate still reserves >0 (flows need a
        route even when momentarily idle)."""
        m = TrafficMonitor(window=4)
        fid = search_traffic.flows[0].flow_id
        for _ in range(4):
            m.observe(fid, 0.0)
        predicted = m.predicted_traffic(search_traffic)
        assert predicted[fid].demand_bps > 0


class TestDiffs:
    def test_routing_diff(self):
        old = Routing({"a": ("x", "s", "y"), "b": ("x", "s", "y")})
        new = Routing({"a": ("x", "t", "y"), "c": ("x", "s", "y")})
        d = diff_routings(old, new)
        assert set(d.rerouted) == {"a"}
        assert set(d.added) == {"c"}
        assert set(d.removed) == {"b"}
        assert d.n_changes == 3

    def test_routing_diff_from_none(self):
        d = diff_routings(None, Routing({"a": ("x", "s", "y")}))
        assert set(d.added) == {"a"}
        assert not d.removed

    def test_identical_routing_empty(self):
        r = Routing({"a": ("x", "s", "y")})
        assert diff_routings(r, r).is_empty

    def test_subnet_diff(self, ft4):
        lvl0 = aggregation_policy(ft4, 0)
        lvl3 = aggregation_policy(ft4, 3)
        d = diff_subnets(lvl0, lvl3)
        assert len(d.switches_to_off) == 7  # 20 -> 13
        assert not d.switches_to_on
        d_back = diff_subnets(lvl3, lvl0)
        assert len(d_back.switches_to_on) == 7
        assert not d_back.switches_to_off

    def test_subnet_diff_from_none(self, ft4):
        d = diff_subnets(None, aggregation_policy(ft4, 3))
        assert len(d.switches_to_on) == 13


# Lists, so that each routing holds its own tuple: equal paths are not
# the same object.
_PATHS = st.sampled_from([["x", "s", "y"], ["x", "t", "y"], ["y", "s", "x"], ["x", "y"]])
_ROUTES = st.dictionaries(st.sampled_from("abcdefghij"), _PATHS, max_size=10)


class TestDiffRoutingsMatchesOracle:
    """The in-place diff against the copying one in ``tests/oracles/control.py``:
    same added, removed and rerouted entries in the same order."""

    @staticmethod
    def _fields(update):
        return [list(d.items()) for d in (update.added, update.removed, update.rerouted)]

    @settings(max_examples=300, deadline=None)
    @given(old=st.one_of(st.none(), _ROUTES), new=_ROUTES)
    def test_random_routings(self, old, new):
        old = None if old is None else Routing(old)
        new = Routing(new)
        assert self._fields(diff_routings(old, new)) == self._fields(
            reference_diff_routings(old, new)
        )

    def test_every_kind_of_change(self):
        old = Routing({"gone": ("x", "y"), "moved": ("x", "s", "y"), "kept": ("y", "s", "x")})
        new = Routing({"kept": ("y", "s", "x"), "fresh": ("x", "t", "y"), "moved": ("x", "t", "y")})
        update = diff_routings(old, new)
        assert self._fields(update) == self._fields(reference_diff_routings(old, new))
        assert self._fields(update) == [
            [("fresh", ("x", "t", "y"))],
            [("gone", ("x", "y"))],
            [("moved", (("x", "s", "y"), ("x", "t", "y")))],
        ]


class TestSdnController:
    def make(self, ft4, **kw):
        return SdnController(GreedyConsolidator(ft4), **kw)

    def test_first_epoch_installs_rules(self, ft4, mixed_traffic):
        ctrl = self.make(ft4)
        out = ctrl.run_epoch(mixed_traffic)
        assert out.epoch == 0
        assert len(out.plan.rules.added) == len(mixed_traffic)
        assert ctrl.current_subnet is not None

    def test_stable_traffic_stable_plan(self, ft4, mixed_traffic):
        ctrl = self.make(ft4)
        ctrl.run_epoch(mixed_traffic)
        out2 = ctrl.run_epoch(mixed_traffic)
        assert out2.plan.is_empty

    def test_scale_factor_change_turns_switches_on(self, ft4):
        traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
        ctrl = self.make(ft4)
        ctrl.run_epoch(traffic)
        base = ctrl.current_subnet.n_switches_on
        ctrl.set_scale_factor(4.0)
        out = ctrl.run_epoch(traffic)
        assert ctrl.current_subnet.n_switches_on >= base
        assert ctrl.switch_power_on_count == len(out.plan.devices.switches_to_on)

    def test_transition_downtime_accounting(self, ft4):
        traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
        ctrl = self.make(ft4)
        ctrl.run_epoch(traffic)
        ctrl.set_scale_factor(4.0)
        ctrl.run_epoch(traffic)
        assert ctrl.transition_downtime_s() == pytest.approx(
            ctrl.switch_power_on_count * SWITCH_POWER_ON_S
        )

    def test_monitor_feeds_prediction(self, ft4, mixed_traffic):
        ctrl = self.make(ft4)
        fid = mixed_traffic.flows[0].flow_id
        for rate in (1e6, 2e6, 3e6):
            ctrl.monitor.observe(fid, rate)
        out = ctrl.run_epoch(mixed_traffic)
        # The epoch consolidated the *predicted* demand for that flow.
        assert out.predicted_total_demand_bps != mixed_traffic.total_demand_bps()

    def test_invalid_params(self, ft4):
        with pytest.raises(ConfigurationError):
            self.make(ft4, scale_factor=0.5)
        with pytest.raises(ConfigurationError):
            self.make(ft4, optimization_period_s=0.0)
        ctrl = self.make(ft4)
        with pytest.raises(ConfigurationError):
            ctrl.set_scale_factor(0.9)

    def test_off_only_transition_charges_no_energy(self, ft4):
        """Regression: shrinking the subnet boots nothing, so there is
        no 72.52 s overlap window and no transition energy — the old
        accounting charged the retiring switches unconditionally."""
        traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
        ctrl = self.make(ft4, scale_factor=4.0)
        ctrl.run_epoch(traffic)
        ctrl.set_scale_factor(1.0)
        out = ctrl.run_epoch(traffic)
        assert not out.plan.devices.switches_to_on
        assert out.plan.devices.switches_to_off  # strictly shrinking
        assert ctrl.transition_energy_joules == 0.0
        assert ctrl.switch_power_on_count == 0

    def test_boot_transition_charges_on_and_off_side(self, ft4):
        """Growing the subnet charges both the booting switches and the
        retired ones held alive as backups over the boot window."""
        traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
        ctrl = self.make(ft4)
        ctrl.run_epoch(traffic)
        ctrl.set_scale_factor(4.0)
        out = ctrl.run_epoch(traffic)
        devices = out.plan.devices
        assert devices.switches_to_on
        watts = ctrl.consolidator.switch_model.power(True)
        expected = (
            len(devices.switches_to_on) + len(devices.switches_to_off)
        ) * watts * SWITCH_POWER_ON_S
        assert ctrl.transition_energy_joules == pytest.approx(expected)

    def test_departed_flow_predictors_are_pruned(self, ft4, mixed_traffic):
        """Regression: the monitor used to keep predictors for churned-
        out flows forever (unbounded growth under churn)."""
        ctrl = self.make(ft4)
        ctrl.monitor.observe("ghost-flow", 5e6)
        live = mixed_traffic.flows[0].flow_id
        ctrl.monitor.observe(live, 5e6)
        ctrl.run_epoch(mixed_traffic)
        assert not ctrl.monitor.has_prediction("ghost-flow")
        assert ctrl.monitor.has_prediction(live)
        assert ctrl.monitor.n_tracked_flows() == 1

    def test_outcome_reports_requested_and_effective_k(self, ft4, mixed_traffic):
        ctrl = self.make(ft4, scale_factor=2.0)
        out = ctrl.run_epoch(mixed_traffic)
        assert out.requested_scale_factor == 2.0
        assert out.effective_scale_factor == out.result.scale_factor
        assert not out.milp_fallback

    def test_milp_fallback_flagged_with_effective_k(self, ft4):
        """Regression: a K-sweep row rescued by the MILP fallback ran at
        K=1, not at the requested K — the outcome must say so."""
        from repro.errors import InfeasibleError

        class AlwaysStrands(GreedyConsolidator):
            def consolidate(self, traffic, scale_factor=1.0, **kwargs):
                raise InfeasibleError("greedy stranded a flow")

        from repro.flows import search_flows

        traffic = search_flows(ft4, aggregator=ft4.hosts[0])
        ctrl = SdnController(
            AlwaysStrands(ft4), scale_factor=3.0,
            milp_fallback_time_limit_s=120.0,
        )
        out = ctrl.run_epoch(traffic)
        assert out.milp_fallback
        assert out.requested_scale_factor == 3.0
        assert out.effective_scale_factor == 1.0
        assert out.scale_degraded
