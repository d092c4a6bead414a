"""Flow model and traffic-set construction."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.flows import (
    Flow,
    FlowClass,
    TrafficSet,
    background_flows,
    combined_traffic,
    search_flows,
)
from repro.flows.flow import copies_with_demands
from repro.units import MBPS


def ls_flow(fid="f1", demand=20 * MBPS):
    return Flow(fid, "h0_0_0", "h1_0_0", demand, FlowClass.LATENCY_SENSITIVE, 5e-3)


def lt_flow(fid="bg1", demand=200 * MBPS):
    return Flow(fid, "h0_0_0", "h1_0_0", demand, FlowClass.LATENCY_TOLERANT)


class TestFlow:
    def test_latency_sensitive_scaling(self):
        f = ls_flow()
        assert f.reserved_bps(1.0) == pytest.approx(20 * MBPS)
        assert f.reserved_bps(3.0) == pytest.approx(60 * MBPS)

    def test_latency_tolerant_not_scaled(self):
        f = lt_flow()
        assert f.reserved_bps(3.0) == pytest.approx(200 * MBPS)

    def test_scale_below_one_raises(self):
        with pytest.raises(ConfigurationError):
            ls_flow().reserved_bps(0.5)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow("x", "h1", "h1", 1.0)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow("x", "a", "b", 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_non_finite_or_nonpositive_deadline_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="deadline must be positive and finite"):
            Flow("x", "a", "b", 1.0, FlowClass.LATENCY_SENSITIVE, deadline_s=bad)

    def test_tolerant_with_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow("x", "a", "b", 1.0, FlowClass.LATENCY_TOLERANT, deadline_s=1e-3)

    def test_invalid_class_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow("x", "a", "b", 1.0, "bulk")

    def test_with_demand(self):
        f = ls_flow().with_demand(42.0)
        assert f.demand_bps == 42.0
        assert f.flow_id == "f1"

    def test_is_latency_sensitive(self):
        assert ls_flow().is_latency_sensitive
        assert not lt_flow().is_latency_sensitive


class TestCopiesWithDemands:
    def test_equal_demand_returns_the_flow_itself(self):
        f, g = ls_flow("a", 1e6), lt_flow("b", 2e6)
        out = copies_with_demands([f, g], [1e6, 2e6])
        assert out[0] is f and out[1] is g

    def test_changed_demand_is_a_field_equal_copy(self):
        f = ls_flow("a", 1e6)
        (copy,) = copies_with_demands([f], [5.0])
        assert copy is not f
        assert copy == f.with_demand(5.0)
        assert vars(copy) == vars(f.with_demand(5.0))
        assert f.demand_bps == 1e6


class TestWithDemands:
    def base(self):
        return TrafficSet([ls_flow("a", 1e6), lt_flow("b", 2e6), ls_flow("c", 3e6)])

    def test_shares_unchanged_flows_and_copies_changed_ones(self):
        base = self.base()
        view = base.with_demands(np.array([1e6, 7.0, 3e6]), np.ones(3, dtype=bool))
        assert view["a"] is base["a"] and view["c"] is base["c"]
        assert view["b"] is not base["b"]
        assert view["b"] == base["b"].with_demand(7.0)
        assert [f.demand_bps for f in view] == [1e6, 7.0, 3e6]
        assert view.total_demand_bps() == 1e6 + 7.0 + 3e6

    def test_bad_demand_still_rejected_beside_unchanged_ones(self):
        base = self.base()
        with pytest.raises(ConfigurationError) as flow_error:
            base["c"].with_demand(-1.0)
        with pytest.raises(ConfigurationError) as view_error:
            base.with_demands(np.array([1e6, 2e6, -1.0]), np.ones(3, dtype=bool))
        assert str(view_error.value) == str(flow_error.value)

    def test_matches_rebuilding_each_flow(self):
        base = self.base()
        view = base.with_demands(np.array([5.0, 7.0, 9.0]), np.array([True, False, True]))
        expected = TrafficSet(
            [base["a"].with_demand(5.0), base["b"], base["c"].with_demand(9.0)]
        )
        assert view.flows == expected.flows
        assert [vars(f) for f in view] == [vars(f) for f in expected]
        assert [type(f.demand_bps) for f in view] == [float] * 3
        assert view["c"] == expected["c"] and "b" in view and "z" not in view
        assert view.total_demand_bps() == expected.total_demand_bps()
        assert view.total_reserved_bps(2.0) == expected.total_reserved_bps(2.0)
        assert view["b"] is base["b"]
        assert base["a"].demand_bps == 1e6  # the base set is untouched

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_bad_demand_with_the_flow_message(self, bad):
        base = self.base()
        with pytest.raises(ConfigurationError) as flow_error:
            base["b"].with_demand(bad)
        with pytest.raises(ConfigurationError) as view_error:
            base.with_demands(np.array([1.0, bad, bad]), np.array([True, True, True]))
        assert str(view_error.value) == str(flow_error.value)

    def test_bad_demand_is_ignored_where_not_replaced(self):
        view = self.base().with_demands(
            np.array([float("nan"), 4.0, -1.0]), np.array([False, True, False])
        )
        assert [f.demand_bps for f in view] == [1e6, 4.0, 3e6]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError, match="one demand and one replace flag"):
            self.base().with_demands(np.ones(2), np.ones(2, dtype=bool))


class TestTrafficSet:
    def test_duplicate_id_rejected(self):
        ts = TrafficSet([ls_flow("a")])
        with pytest.raises(ConfigurationError):
            ts.add(ls_flow("a"))

    def test_lookup_and_contains(self):
        ts = TrafficSet([ls_flow("a"), lt_flow("b")])
        assert ts["a"].flow_id == "a"
        assert "b" in ts
        assert "c" not in ts

    def test_class_partitions(self):
        ts = TrafficSet([ls_flow("a"), lt_flow("b"), ls_flow("c")])
        assert len(ts.latency_sensitive) == 2
        assert len(ts.latency_tolerant) == 1

    def test_total_demand(self):
        ts = TrafficSet([ls_flow("a", 10.0), lt_flow("b", 20.0)])
        assert ts.total_demand_bps() == pytest.approx(30.0)

    def test_total_reserved_scales_only_sensitive(self):
        ts = TrafficSet([ls_flow("a", 10.0), lt_flow("b", 20.0)])
        assert ts.total_reserved_bps(2.0) == pytest.approx(40.0)

    def test_merge(self):
        merged = TrafficSet([ls_flow("a")]).merged_with(TrafficSet([lt_flow("b")]))
        assert len(merged) == 2


class TestSearchFlows:
    def test_request_and_reply_per_isn(self, ft4):
        ts = search_flows(ft4, aggregator="h0_0_0")
        assert len(ts) == 2 * 15  # 15 ISNs, request + reply each

    def test_all_latency_sensitive_with_deadline(self, ft4):
        ts = search_flows(ft4, aggregator="h0_0_0", deadline_s=7e-3)
        for f in ts:
            assert f.is_latency_sensitive
            assert f.deadline_s == pytest.approx(7e-3)

    def test_requests_fan_out_replies_fan_in(self, ft4):
        ts = search_flows(ft4, aggregator="h0_0_0")
        reqs = [f for f in ts if f.flow_id.startswith("req:")]
        reps = [f for f in ts if f.flow_id.startswith("rep:")]
        assert all(f.src == "h0_0_0" for f in reqs)
        assert all(f.dst == "h0_0_0" for f in reps)

    def test_no_replies_option(self, ft4):
        ts = search_flows(ft4, aggregator="h0_0_0", include_replies=False)
        assert len(ts) == 15

    def test_bad_aggregator_raises(self, ft4):
        with pytest.raises(ConfigurationError):
            search_flows(ft4, aggregator="e0_0")


class TestBackgroundFlows:
    def test_count_defaults_to_hosts(self, ft4):
        ts = background_flows(ft4, 0.2, seed_or_rng=0)
        assert len(ts) == 16

    def test_all_latency_tolerant(self, ft4):
        for f in background_flows(ft4, 0.2, seed_or_rng=0):
            assert not f.is_latency_sensitive

    def test_demand_targets_uplink_utilization(self, ft4):
        ts = background_flows(ft4, 0.3, seed_or_rng=0)
        # One flow per host: each uplink carries exactly 30% of 1 Gbps.
        for f in ts:
            assert f.demand_bps == pytest.approx(0.3 * 1e9)

    def test_zero_utilization_empty(self, ft4):
        assert len(background_flows(ft4, 0.0, seed_or_rng=0)) == 0

    def test_deterministic_with_seed(self, ft4):
        a = background_flows(ft4, 0.2, seed_or_rng=3)
        b = background_flows(ft4, 0.2, seed_or_rng=3)
        assert [f.dst for f in a] == [f.dst for f in b]

    def test_invalid_utilization_raises(self, ft4):
        with pytest.raises(ConfigurationError):
            background_flows(ft4, 1.0)

    def test_multiple_flows_per_source_split_demand(self, ft4):
        ts = background_flows(ft4, 0.4, n_flows=32, seed_or_rng=0)
        assert len(ts) == 32
        # Two flows per source -> each carries half the target.
        for f in ts:
            assert f.demand_bps == pytest.approx(0.2 * 1e9)


class TestCombinedTraffic:
    def test_composition(self, ft4):
        ts = combined_traffic(ft4, "h0_0_0", 0.2, seed_or_rng=1)
        assert len(ts.latency_sensitive) == 30
        assert len(ts.latency_tolerant) == 16
