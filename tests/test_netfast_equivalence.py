"""Production network layer: bit-identical to the string-keyed oracle.

The :mod:`repro.netfast` fast path behind :class:`GreedyConsolidator`
and :class:`NetworkModel` is not an approximation: consolidation
routing, active subnets, objectives, per-link utilizations, per-flow
samples, and pooled latency summaries must all be exactly equal (``==``
on floats, not allclose) to the reference implementations in
``tests/oracles/network.py``.  A golden-hash regression additionally
pins production and the oracle to digests captured from the original
string-keyed implementation, so the packing contract (activation cost,
then largest bottleneck, then leftmost path) cannot drift silently.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.consolidation.elastictree import ElasticTreeConsolidator
from repro.consolidation.heuristic import GreedyConsolidator, route_on_subnet
from repro.errors import ConfigurationError, InfeasibleError
from repro.flows.traffic import combined_traffic
from repro.netsim.network import NetworkModel
from repro.topology.aggregation import aggregation_policy
from repro.topology.fattree import FatTree
from repro.workloads.search import SearchWorkload
from tests.oracles.network import (
    ReferenceGreedyConsolidator,
    ReferenceNetworkModel,
    reference_route_on_subnet,
)

#: (consolidator class, route_on_subnet, network model) of production
#: (the indexed fast path) and of the string-keyed reference oracle.
IMPLEMENTATIONS = {
    "indexed": (GreedyConsolidator, route_on_subnet, NetworkModel),
    "reference": (ReferenceGreedyConsolidator, reference_route_on_subnet, ReferenceNetworkModel),
}


def routing_digest(res) -> str:
    payload = {
        "routing": {fid: list(p) for fid, p in sorted(res.routing.items())},
        "switches_on": sorted(res.subnet.switches_on),
        "links_on": sorted(map(list, res.subnet.links_on)),
        "scale_factor": res.scale_factor,
        "objective_watts": res.objective_watts,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def consolidate_both(topology, traffic, scale_factor, **kwargs):
    got = GreedyConsolidator(topology, **kwargs).consolidate(traffic, scale_factor)
    want = ReferenceGreedyConsolidator(topology, **kwargs).consolidate(traffic, scale_factor)
    return got, want


def assert_results_equal(a, b) -> None:
    assert dict(a.routing.items()) == dict(b.routing.items())
    assert a.subnet.switches_on == b.subnet.switches_on
    assert a.subnet.links_on == b.subnet.links_on
    assert a.scale_factor == b.scale_factor
    assert a.objective_watts == b.objective_watts


#: Per-query demand keeping the aggregator's access-link fan-in
#: ((n_hosts - 1) reply flows + 20 % background) routable at each arity.
QUERY_DEMAND_BPS = {4: 10e6, 6: 10e6, 8: 4e6}


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("seed", [1, 7])
def test_consolidation_equivalence_randomized(k, seed):
    ft = FatTree(k)
    traffic = SearchWorkload(ft, query_demand_bps=QUERY_DEMAND_BPS[k]).traffic(
        0.2, seed_or_rng=seed
    )
    for scale in (1.0, 2.0):
        got, want = consolidate_both(ft, traffic, scale)
        assert_results_equal(got, want)


@pytest.mark.parametrize("k", [4, 6])
def test_fixed_subnet_equivalence(k):
    ft = FatTree(k)
    traffic = SearchWorkload(ft).traffic(0.2, seed_or_rng=1)
    for level in (0, 1):
        sub = aggregation_policy(ft, level)
        assert_results_equal(
            route_on_subnet(sub, traffic), reference_route_on_subnet(sub, traffic)
        )


def test_elastictree_equivalence():
    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.3, seed_or_rng=3)
    got = ElasticTreeConsolidator(ft).consolidate(traffic, 3.0)
    assert got.scale_factor == 1.0
    assert_results_equal(got, ReferenceGreedyConsolidator(ft).consolidate(traffic, 1.0))


def test_infeasible_raises_identically():
    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.2, seed_or_rng=1)
    sub = aggregation_policy(ft, 3)
    messages = {}
    for name, (_, route, _) in IMPLEMENTATIONS.items():
        with pytest.raises(InfeasibleError) as err:
            route(sub, traffic)
        messages[name] = str(err.value)
    assert messages["indexed"] == messages["reference"]


def test_network_model_equivalence():
    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.2, seed_or_rng=1)
    res = GreedyConsolidator(ft).consolidate(traffic, 2.0)
    m_i = NetworkModel(ft, traffic, res.routing)
    m_r = ReferenceNetworkModel(ft, traffic, res.routing)
    assert m_i.link_utilizations == m_r.link_utilizations
    assert m_i.max_utilization() == m_r.max_utilization()
    for threshold in (0.2, 0.5, 1.0):
        assert m_i.overloaded_links(threshold) == m_r.overloaded_links(threshold)
    for flow in traffic:
        fid = flow.flow_id
        assert np.array_equal(m_i.path_utilizations(fid), m_r.path_utilizations(fid))
        assert m_i.flow_mean_latency(fid) == m_r.flow_mean_latency(fid)
        assert np.array_equal(
            m_i.sample_flow_latency(fid, 64, 11), m_r.sample_flow_latency(fid, 64, 11)
        )
    assert m_i.query_latency_summary(256, 5) == m_r.query_latency_summary(256, 5)


def test_network_model_validation_messages_match():
    from repro.netsim.network import Routing

    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.0, seed_or_rng=1)
    res = GreedyConsolidator(ft).consolidate(traffic, 1.0)
    # Drop one flow's route: production and oracle raise the same message.
    paths = dict(res.routing.items())
    dropped = sorted(paths)[0]
    del paths[dropped]
    broken = Routing(paths)
    messages = {}
    for name, (_, _, model) in IMPLEMENTATIONS.items():
        with pytest.raises(ConfigurationError) as err:
            model(ft, traffic, broken)
        messages[name] = str(err.value)
    assert messages["indexed"] == messages["reference"]
    assert dropped in messages["indexed"]


# -- golden regression: digests captured from the original string-keyed code --

GOLDEN_COMBINED = {
    # combined_traffic(ft4, hosts[0], bg=0.2, seed=1)
    (4, 1.0): "d7f50ee50b36867691dcdc42fb1c38d1de55df494d9f95ac87a34721af17be62",
    (4, 2.0): "90ed4d4e3d8ab732b67ab801389dbececc99adf33d6472635f2c25783dd02622",
    (4, 3.0): "089a2da1c7a3974612c136e6f140249a1eb9477651a26c6ea3385edd2be4cd5d",
}

GOLDEN_COMBINED_SUBNET = {
    (4, 0): "698590aa332bc473b93b2f4942d9235f8fe46043ed1ca62a1ec387653cd9f210",
    (4, 1): "a57dd19785ba2fa4ad3fb32e715c7e05b3c96c1455550606610850c706665b3f",
    (4, 2): "2c12bb32621aba16d30ba33b0b788aca926aa7a0423f3f10ff714a46fb0b5612",
}

GOLDEN_WORKLOAD = {
    # SearchWorkload(ft).traffic(0.2, seed=1), default 10 Mbps queries
    (4, 1.0): "efbe9151d6847c0655caafac4a6ee9e5479b12e16330d683aaa270393b396048",
    (4, 2.0): "db0816c18a7a0345f0738a46a331d9c42fbaa9416033834c4c13e4f26baa643f",
    (6, 1.0): "948a330379209a4d0b52c2bc1664b11f346349e4586df6bdc57f8e91540a6de1",
    (6, 2.0): "9471d3a076eb3bd3d8d7b19cb2d3ddc478a93643944f1729b2d24e03fd06d4f9",
}

GOLDEN_UTILIZATION = (
    # sha256 over sorted (u, v, util.hex()) of link_utilizations after
    # the (4, 2.0) combined-traffic consolidation above.
    "cd87f825acef44c188e9542dda04ccd76a311ae74e9f300393c7b4ac24a16619"
)


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_golden_routing_combined(impl):
    consolidator, route, _ = IMPLEMENTATIONS[impl]
    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.2, seed_or_rng=1)
    for (k, scale), digest in GOLDEN_COMBINED.items():
        assert k == 4
        res = consolidator(ft).consolidate(traffic, scale)
        assert routing_digest(res) == digest, (impl, scale)
    for (k, level), digest in GOLDEN_COMBINED_SUBNET.items():
        res = route(aggregation_policy(ft, level), traffic)
        assert routing_digest(res) == digest, (impl, level)


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_golden_routing_workload(impl):
    consolidator = IMPLEMENTATIONS[impl][0]
    for k in (4, 6):
        ft = FatTree(k)
        traffic = SearchWorkload(ft).traffic(0.2, seed_or_rng=1)
        for scale in (1.0, 2.0):
            res = consolidator(ft).consolidate(traffic, scale)
            assert routing_digest(res) == GOLDEN_WORKLOAD[(k, scale)], (impl, k, scale)


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_golden_utilization(impl):
    consolidator, _, network_model = IMPLEMENTATIONS[impl]
    ft = FatTree(4)
    traffic = combined_traffic(ft, ft.hosts[0], 0.2, seed_or_rng=1)
    res = consolidator(ft).consolidate(traffic, 2.0)
    model = network_model(ft, traffic, res.routing)
    items = sorted((u, v, val.hex()) for (u, v), val in model.link_utilizations.items())
    digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()
    assert digest == GOLDEN_UTILIZATION
