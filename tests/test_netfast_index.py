"""Unit tests for the netfast index / routing-matrix building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.consolidation.heuristic import GreedyConsolidator
from repro.errors import ConfigurationError
from repro.flows.traffic import combined_traffic
from repro.netfast import RoutingMatrix, topology_index
from repro.netfast.routing import _ranges
from repro.netsim.network import Routing
from repro.netsim.latency import (
    LinkLatencyModel,
    _scatter_add_rows,
    sample_pooled_path_delays,
)
from repro.topology.fattree import FatTree
from repro.topology.paths import fat_tree_paths, shortest_paths
from tests.oracles.network import ReferenceNetworkModel


@pytest.fixture(scope="module")
def ft4():
    return FatTree(4)


def test_index_node_ids_hosts_first(ft4):
    idx = topology_index(ft4)
    assert idx.node_names[: idx.n_hosts] == ft4.hosts
    assert idx.node_names[idx.n_hosts :] == ft4.switches
    assert not idx.is_switch_node[: idx.n_hosts].any()
    assert idx.is_switch_node[idx.n_hosts :].all()


def test_index_directed_link_scheme(ft4):
    idx = topology_index(ft4)
    for i, (u, v) in enumerate(ft4.links):
        assert idx.dlink_id[(u, v)] == 2 * i
        assert idx.dlink_id[(v, u)] == 2 * i + 1
        assert idx.dlink_name(2 * i) == (u, v)
        assert idx.dlink_name(2 * i + 1) == (v, u)
        assert idx.dlink_capacity[2 * i] == ft4.capacity(u, v)


def test_index_is_shared_per_topology(ft4):
    assert topology_index(ft4) is topology_index(ft4)


def test_index_shared_across_content_identical_topologies(ft4):
    """Two FatTree(4) objects have identical structure, so the
    content-fingerprint registry hands them one compiled index (and one
    shared path-set cache) — repeated benchmark/sweep runs stop
    rebuilding the dense matrices from scratch."""
    a, b = FatTree(4), FatTree(4)
    assert a is not b
    assert a.fingerprint() == b.fingerprint()
    assert topology_index(a) is topology_index(b)


def test_index_not_shared_across_different_content():
    import networkx as nx

    from repro.topology import NodeKind, Topology

    def line(capacity):
        g = nx.Graph()
        g.add_node("h1", kind=NodeKind.HOST)
        g.add_node("h2", kind=NodeKind.HOST)
        g.add_node("s1", kind=NodeKind.SWITCH)
        g.add_edge("h1", "s1", capacity=capacity)
        g.add_edge("h2", "s1", capacity=capacity)
        return Topology(g)

    a, b, c = line(1e9), line(2e9), line(1e9)
    assert a.fingerprint() != b.fingerprint()
    assert topology_index(a) is not topology_index(b)
    assert topology_index(a) is topology_index(c)


def test_clear_index_registry():
    from repro.netfast import clear_index_registry

    a = FatTree(4)
    idx = topology_index(a)
    clear_index_registry()
    # Identity entry survives (weak, keyed on the live object) ...
    assert topology_index(a) is idx
    # ... but a fresh content-identical topology compiles anew.
    assert topology_index(FatTree(4)) is not idx


def test_index_is_released_with_its_users():
    """Regression: an index refers to its topology, so holding it as a
    strong identity-map value kept every index ever built (and all of
    its path sets) alive for the life of the process."""
    import gc
    import weakref

    from repro.netfast import clear_index_registry

    topo = FatTree(4)
    ref = weakref.ref(topology_index(topo))
    clear_index_registry()
    gc.collect()
    assert ref() is None


def test_content_registry_is_bounded():
    import networkx as nx

    from repro.netfast.index import _CONTENT_REGISTRY, _MAX_CONTENT_ENTRIES
    from repro.topology import NodeKind, Topology

    def line(capacity):
        g = nx.Graph()
        g.add_node("h1", kind=NodeKind.HOST)
        g.add_node("h2", kind=NodeKind.HOST)
        g.add_node("s1", kind=NodeKind.SWITCH)
        g.add_edge("h1", "s1", capacity=capacity)
        g.add_edge("h2", "s1", capacity=capacity)
        return Topology(g)

    for i in range(_MAX_CONTENT_ENTRIES + 4):
        topology_index(line(1e9 + i * 1e6))
    assert len(_CONTENT_REGISTRY) <= _MAX_CONTENT_ENTRIES


def _leaf_spine():
    """A non-fat-tree fabric: 3 leaves x 2 spines, 2 hosts per leaf."""
    import networkx as nx

    from repro.topology import NodeKind, Topology

    g = nx.Graph()
    for s in ("s0", "s1"):
        g.add_node(s, kind=NodeKind.SWITCH)
    for leaf in range(3):
        g.add_node(f"l{leaf}", kind=NodeKind.SWITCH)
        for s in ("s0", "s1"):
            g.add_edge(f"l{leaf}", s, capacity=1e9)
        for i in range(2):
            g.add_node(f"h{leaf}{i}", kind=NodeKind.HOST)
            g.add_edge(f"h{leaf}{i}", f"l{leaf}", capacity=1e9)
    return Topology(g)


def _sample_pairs(topo, n=20, seed=0):
    hosts = topo.hosts
    rng = np.random.default_rng(seed)
    return [
        (hosts[s], hosts[d])
        for s, d in rng.integers(0, len(hosts), size=(n, 2))
        if s != d
    ]


@pytest.mark.parametrize(
    "topo, pairs",
    [
        pytest.param(
            FatTree(k),
            [
                (FatTree.host_name(0, 0, 0), FatTree.host_name(0, 0, 1)),  # same edge
                (FatTree.host_name(1, 0, 0), FatTree.host_name(1, k // 2 - 1, 1)),  # same pod
                (FatTree.host_name(0, 1, 0), FatTree.host_name(k - 1, 0, 1)),  # inter-pod
            ],
            id=f"fattree-k{k}",
        )
        for k in (4, 8, 24)
    ]
    + [pytest.param(_leaf_spine(), [("h00", "h01"), ("h00", "h21")], id="leaf-spine")],
)
def test_path_set_matches_shortest_paths(topo, pairs):
    """Every field of a path set matches the reference enumeration,
    row for row in leftmost order.  At k=24 the aggregation switches
    and cores of a pod/group sort by name (``a0_10`` < ``a0_2``), so an
    implementation that orders them numerically fails here."""
    idx = topology_index(topo)
    for src, dst in pairs + _sample_pairs(topo):
        ps = idx.path_set(src, dst)
        paths = shortest_paths(topo, src, dst)
        if isinstance(topo, FatTree):
            assert paths == fat_tree_paths(topo, src, dst)
        assert ps.node_paths == tuple(paths)
        assert [ps.node_path(r) for r in range(ps.n_paths)] == paths
        hops = [list(zip(p[:-1], p[1:])) for p in paths]
        dlinks = np.array([[idx.dlink_id[h] for h in row] for row in hops], dtype=np.intp)
        switches = np.array(
            [[idx.node_id[n] for n in p if topo.is_switch(n)] for p in paths],
            dtype=np.intp,
        )
        host_hop = np.array(
            [[topo.is_host(u) or topo.is_host(v) for u, v in row] for row in hops]
        )
        for got, want in (
            (ps.dlinks, dlinks),
            (ps.ulinks, dlinks // 2),
            (ps.switch_nodes, switches),
            (ps.host_hop, host_hop),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (src, dst)


def test_routing_matrix_round_trip(ft4):
    traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
    res = GreedyConsolidator(ft4).consolidate(traffic, 1.0)
    idx = topology_index(ft4)
    mat = RoutingMatrix.build(idx, traffic, res.routing)
    assert mat.n_flows == len(traffic)
    for flow in traffic:
        hops = [idx.dlink_name(int(d)) for d in mat.hops_of(flow.flow_id)]
        assert tuple(hops) == res.routing.directed_links(flow.flow_id)
    rows = [mat.row_of[f.flow_id] for f in traffic.latency_sensitive]
    dlinks, owner = mat.concat_rows(rows)
    expect = np.concatenate([mat.dlinks[mat.indptr[r] : mat.indptr[r + 1]] for r in rows])
    assert np.array_equal(dlinks, expect)
    counts = [mat.indptr[r + 1] - mat.indptr[r] for r in rows]
    assert np.array_equal(owner, np.repeat(np.arange(len(rows)), counts))


def test_route_memo_keeps_the_oracle_errors(ft4):
    traffic = combined_traffic(ft4, ft4.hosts[0], 0.2, seed_or_rng=1)
    good = GreedyConsolidator(ft4).consolidate(traffic, 1.0).routing
    idx = topology_index(ft4)
    RoutingMatrix.build(idx, traffic, good)  # every path is now memoized
    paths = dict(good.items())
    fid, path = next((f, p) for f, p in paths.items() if len(p) == 7)
    other = next(f for f, p in paths.items() if p[0] != path[0])
    broken = {
        # The cached path minus its last edge switch: a bad final hop.
        "missing hop": {**paths, fid: path[:5] + path[6:]},
        # A cached path of another flow.
        "swapped endpoints": {**paths, fid: paths[other]},
        "unrouted": {f: p for f, p in paths.items() if f != fid},
    }
    for name, bad in broken.items():
        with pytest.raises(ConfigurationError) as want:
            ReferenceNetworkModel(ft4, traffic, Routing(bad))
        with pytest.raises(ConfigurationError) as got:
            RoutingMatrix.build(idx, traffic, Routing(bad))
        assert str(got.value) == str(want.value), name
    # A failed compile memoizes nothing; the good routing still compiles.
    assert idx.route_dlinks(path[:5] + path[6:]) is None
    assert idx.route_dlinks(path) == tuple(idx.dlink_id[h] for h in zip(path, path[1:]))
    assert RoutingMatrix.build(idx, traffic, good).n_flows == len(traffic)


def test_ranges():
    assert np.array_equal(_ranges(np.array([3, 1, 2])), [0, 1, 2, 0, 0, 1])
    assert np.array_equal(_ranges(np.array([2])), [0, 1])
    assert _ranges(np.array([], dtype=np.intp)).size == 0


def test_scatter_add_rows_matches_add_at():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_rows, n_dest, n = rng.integers(1, 30), rng.integers(1, 8), rng.integers(1, 6)
        idx = rng.integers(0, n_dest, n_rows)
        waits = rng.random((n_rows, n))
        a = rng.random((n_dest, n))
        b = a.copy()
        np.add.at(a, idx, waits)
        _scatter_add_rows(b, idx, waits)
        assert np.array_equal(a, b)


def test_pooled_sampler_deterministic_and_shaped():
    model = LinkLatencyModel()
    utils = np.array([0.0, 0.3, 0.3, 0.9, 0.5, 0.9])
    flow_of_hop = np.array([0, 0, 1, 1, 2, 2])
    a = sample_pooled_path_delays(model, utils, flow_of_hop, 3, 100, seed_or_rng=9)
    b = sample_pooled_path_delays(model, utils, flow_of_hop, 3, 100, seed_or_rng=9)
    assert a.shape == (3, 100)
    assert np.array_equal(a, b)
    # Every sample includes its flow's fixed propagation+transmission base.
    base = model.propagation_s + model.transmission_s
    assert (a >= 2 * base - 1e-18).all()
    # Flow 1 crosses a hot 0.9 link; its mean must exceed flow 0's.
    assert a[1].mean() > a[0].mean()


def test_pooled_sampler_mean_tracks_analytic():
    model = LinkLatencyModel()
    utils = np.full(4, 0.8)
    flow_of_hop = np.zeros(4, dtype=np.intp)
    samples = sample_pooled_path_delays(model, utils, flow_of_hop, 1, 20000, seed_or_rng=3)
    expect = float(np.sum(model.mean_delay(utils)))
    assert samples.mean() == pytest.approx(expect, rel=0.05)
