"""Traffic consolidation: greedy heuristic, fixed-subnet routing, and
the shared validation/link-reservation helpers."""

import pytest

from repro.consolidation import (
    GreedyConsolidator,
    route_on_subnet,
    validate_result,
)
from repro.consolidation.base import link_reservation
from repro.errors import ConfigurationError, InfeasibleError
from repro.flows import Flow, FlowClass, TrafficSet, combined_traffic, search_flows
from repro.topology import FatTree, aggregation_policy
from repro.units import MBPS
from repro.workloads import SearchWorkload

FT = FatTree(4)
FT8 = FatTree(8)


def digest(result):
    """Everything a consolidation decision commits, comparably."""
    return (
        sorted(result.routing.items()),
        sorted(result.subnet.switches_on),
        sorted(result.subnet.links_on),
        result.scale_factor,
        result.objective_watts,
    )


def bench_style_epochs(ft, n_epochs, query_demand_bps=4e6, seed=1):
    """Fan-in query + churned background at 20 % utilization — the
    construction (and density) the control benchmark solves."""
    from repro.flows.dynamics import FlowChurnModel
    from repro.workloads.search import SearchWorkload

    query = SearchWorkload(ft, query_demand_bps=query_demand_bps).query_flows()
    churn = FlowChurnModel(
        ft, mean_lifetime_epochs=10.0, demand_jitter=0.0, seed_or_rng=seed
    )
    return [churn.advance(0.2).merged_with(query) for _ in range(n_epochs)]


class TestLinkReservation:
    def test_switch_link_scaled(self, ft4):
        f = Flow("q", "h0_0_0", "h1_0_0", 20 * MBPS, FlowClass.LATENCY_SENSITIVE, 5e-3)
        assert link_reservation(f, 3.0, ft4, "e0_0", "a0_0") == pytest.approx(60 * MBPS)

    def test_host_link_not_scaled(self, ft4):
        f = Flow("q", "h0_0_0", "h1_0_0", 20 * MBPS, FlowClass.LATENCY_SENSITIVE, 5e-3)
        assert link_reservation(f, 3.0, ft4, "h0_0_0", "e0_0") == pytest.approx(20 * MBPS)

    def test_tolerant_never_scaled(self, ft4):
        f = Flow("bg", "h0_0_0", "h1_0_0", 100 * MBPS, FlowClass.LATENCY_TOLERANT)
        assert link_reservation(f, 4.0, ft4, "e0_0", "a0_0") == pytest.approx(100 * MBPS)


class TestGreedyConsolidator:
    def test_result_valid(self, ft4, mixed_traffic):
        res = GreedyConsolidator(ft4).consolidate(mixed_traffic, 1.0)
        validate_result(ft4, mixed_traffic, res)

    def test_consolidates_below_full_topology(self, ft4, search_traffic):
        res = GreedyConsolidator(ft4).consolidate(search_traffic, 1.0)
        assert res.n_switches_on < ft4.n_switches

    def test_more_k_more_switches(self, ft4, mixed_traffic):
        g = GreedyConsolidator(ft4)
        counts = [g.consolidate(mixed_traffic, k).n_switches_on for k in (1, 2, 3, 4)]
        assert counts[0] <= counts[-1]
        assert counts == sorted(counts)

    def test_spread_under_larger_k(self, ft4):
        """Fig. 2: at higher K, latency-sensitive flows move off the
        elephant's path, lowering the max utilization a query sees."""
        traffic = combined_traffic(ft4, "h0_0_0", 0.5, seed_or_rng=3)
        g = GreedyConsolidator(ft4)
        from repro.netsim import NetworkModel

        def max_query_switch_util(k):
            res = g.consolidate(traffic, k, best_effort_scale=True)
            validate_result(ft4, traffic, res, check_reservations=False)
            nm = NetworkModel(ft4, traffic, res.routing)
            # Host access links cannot be steered by K; the scale factor
            # acts on the switch-switch hops (path[1:-1]).
            worst = 0.0
            for f in traffic.latency_sensitive:
                utils = nm.path_utilizations(f.flow_id)[1:-1]
                if len(utils):
                    worst = max(worst, float(max(utils)))
            return worst

        assert max_query_switch_util(4) < max_query_switch_util(1)

    def test_best_effort_never_worse_than_k1(self, ft4):
        """Best-effort at high K still routes everything K=1 could."""
        traffic = combined_traffic(ft4, "h0_0_0", 0.5, seed_or_rng=3)
        g = GreedyConsolidator(ft4)
        res = g.consolidate(traffic, 6.0, best_effort_scale=True)
        validate_result(ft4, traffic, res, check_reservations=False)
        assert len(res.routing) == len(traffic)

    def test_minimum_switch_floor(self, ft4, search_traffic):
        """Search traffic alone fits the minimal subnet (13 switches)."""
        res = GreedyConsolidator(ft4).consolidate(search_traffic, 1.0)
        assert res.n_switches_on == 13

    def test_infeasible_raises(self, ft4):
        # Two elephants from one host exceed the single uplink.
        flows = TrafficSet(
            [
                Flow(f"bg{i}", "h0_0_0", "h1_0_0", 600 * MBPS, FlowClass.LATENCY_TOLERANT)
                for i in range(2)
            ]
        )
        with pytest.raises(InfeasibleError):
            GreedyConsolidator(ft4).consolidate(flows, 1.0)

    def test_deterministic(self, ft4, mixed_traffic):
        a = GreedyConsolidator(ft4).consolidate(mixed_traffic, 2.0)
        b = GreedyConsolidator(ft4).consolidate(mixed_traffic, 2.0)
        assert a.subnet.switches_on == b.subnet.switches_on
        assert dict(a.routing.items()) == dict(b.routing.items())

    def test_objective_matches_subnet_power(self, ft4, mixed_traffic):
        g = GreedyConsolidator(ft4)
        res = g.consolidate(mixed_traffic, 1.0)
        sw, ln = res.subnet.network_power(g.switch_model, g.link_model)
        assert res.objective_watts == pytest.approx(sw + ln)

    def test_respects_safety_margin(self, ft4):
        # 960 Mbps elephant exceeds the 950 Mbps usable capacity.
        flows = TrafficSet(
            [Flow("bg", "h0_0_0", "h1_0_0", 960 * MBPS, FlowClass.LATENCY_TOLERANT)]
        )
        with pytest.raises(InfeasibleError):
            GreedyConsolidator(ft4, safety_margin_bps=50 * MBPS).consolidate(flows, 1.0)
        # Without the margin it fits.
        res = GreedyConsolidator(ft4, safety_margin_bps=0.0).consolidate(flows, 1.0)
        validate_result(ft4, flows, res)


class TestRouteOnSubnet:
    def test_routes_stay_inside_policy(self, ft4, search_traffic):
        sub = aggregation_policy(ft4, 3)
        res = route_on_subnet(sub, search_traffic, 1.0)
        for fid, path in res.routing.items():
            for node in path:
                if ft4.is_switch(node):
                    assert sub.is_switch_on(node)

    def test_reports_full_policy_power(self, ft4, search_traffic):
        sub = aggregation_policy(ft4, 2)
        res = route_on_subnet(sub, search_traffic, 1.0)
        sw, ln = sub.network_power()
        assert res.objective_watts == pytest.approx(sw + ln)
        assert res.subnet is sub

    def test_aggregation3_infeasible_under_heavy_background(self, ft4):
        """Fig. 13(c): high background + high K do not fit the minimal
        subnet."""
        traffic = combined_traffic(ft4, "h0_0_0", 0.5, seed_or_rng=3)
        sub = aggregation_policy(ft4, 3)
        with pytest.raises(InfeasibleError):
            route_on_subnet(sub, traffic, scale_factor=8.0)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_all_policies_carry_light_traffic(self, ft4, search_traffic, level):
        sub = aggregation_policy(ft4, level)
        res = route_on_subnet(sub, search_traffic, 1.0)
        validate_result(ft4, search_traffic, res)

    def test_foreign_topology_subnet_is_a_configuration_error(self, ft4):
        """A subnet of another (even identical) topology is a caller
        mistake, not an infeasible point: the sweep cache stores
        InfeasibleError results as "this policy cannot carry the
        traffic", so it must not be raised for a misconfiguration."""
        foreign = aggregation_policy(FatTree(4), 1)
        with pytest.raises(ConfigurationError, match="different topology"):
            GreedyConsolidator(ft4, allowed_subnet=foreign)

    def test_foreign_host_is_a_configuration_error(self, ft4):
        """Traffic of a larger fat-tree names hosts ``ft4`` lacks: a
        caller mistake, reported with the host's name."""
        traffic = SearchWorkload(FatTree(6)).traffic(0.1, seed_or_rng=0)
        with pytest.raises(ConfigurationError, match="h5_0_0"):
            GreedyConsolidator(ft4).consolidate(traffic, 1.0)


class TestSearchFlowsKExample:
    def test_fig2_scale_factor_effect(self, ft4):
        """Reproduce the Fig. 2 example: one 900 Mbps elephant plus two
        20 Mbps latency-sensitive flows; raising K forces the mice off
        the elephant's path."""
        elephant = Flow("red", "h0_0_0", "h1_0_0", 900 * MBPS, FlowClass.LATENCY_TOLERANT)
        blue = Flow("blue", "h0_0_1", "h1_0_1", 20 * MBPS, FlowClass.LATENCY_SENSITIVE, 5e-3)
        green = Flow("green", "h0_1_0", "h1_1_0", 20 * MBPS, FlowClass.LATENCY_SENSITIVE, 5e-3)
        traffic = TrafficSet([elephant, blue, green])
        g = GreedyConsolidator(ft4)

        res1 = g.consolidate(traffic, 1.0)
        res3 = g.consolidate(traffic, 3.0)
        validate_result(ft4, traffic, res1)
        validate_result(ft4, traffic, res3)
        assert res3.n_switches_on >= res1.n_switches_on

        from repro.topology import path_links

        def shares_core_links(res, mouse):
            e_links = set(path_links(res.routing.path("red")))
            m_links = set(path_links(res.routing.path(mouse)))
            shared = {
                l
                for l in e_links & m_links
                if not (ft4.is_host(l[0]) or ft4.is_host(l[1]))
            }
            return bool(shared)

        # At K=3 the 60 Mbps reservation no longer fits beside the
        # 900 Mbps elephant on any switch-switch link (950 usable).
        assert not shares_core_links(res3, "blue")
        assert not shares_core_links(res3, "green")


class TestBoundedCaches:
    """Regression: the per-pair cache must stay bounded (it used to
    grow one entry per distinct (src, dst) forever)."""

    def test_pair_cache_evicts(self):
        cons = GreedyConsolidator(FT8, pair_cache_max=8)
        hosts = list(FT8.hosts)
        # a first solve initializes the packing state the pair cache
        # masks against
        cons.consolidate(
            TrafficSet([Flow("f0", hosts[0], hosts[1], 1 * MBPS,
                             FlowClass.LATENCY_TOLERANT)]),
            1.0,
        )
        for i in range(40):
            cons._pair(hosts[i], hosts[(i + 17) % len(hosts)])
        assert len(cons._pair_cache) <= 8

    def test_engines_still_agree_under_tiny_cache(self):
        traffic = bench_style_epochs(FT, 1, query_demand_bps=10e6)[0]
        expected = GreedyConsolidator(FT).consolidate(traffic, 2.0)
        small = GreedyConsolidator(FT, pair_cache_max=2).consolidate(traffic, 2.0)
        assert digest(small) == digest(expected)
