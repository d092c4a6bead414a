"""Generic topology wrapper and active-subnet invariants."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.topology import ActiveSubnet, FatTree, NodeKind, Topology, canonical_link
from tests.oracles.topology import reference_check_subnet


def tiny_graph():
    """h1 - s1 - s2 - h2 with a redundant switch s3 bridging s1-s2."""
    g = nx.Graph()
    g.add_node("h1", kind=NodeKind.HOST)
    g.add_node("h2", kind=NodeKind.HOST)
    for s in ("s1", "s2", "s3"):
        g.add_node(s, kind=NodeKind.SWITCH)
    for u, v in [("h1", "s1"), ("s1", "s2"), ("h2", "s2"), ("s1", "s3"), ("s3", "s2")]:
        g.add_edge(u, v, capacity=1e9)
    return g


@pytest.fixture()
def tiny():
    return Topology(tiny_graph())


class TestCanonicalLink:
    def test_orders_lexicographically(self):
        assert canonical_link("b", "a") == ("a", "b")
        assert canonical_link("a", "b") == ("a", "b")


class TestTopologyValidation:
    def test_counts(self, tiny):
        assert tiny.n_hosts == 2
        assert tiny.n_switches == 3
        assert tiny.n_links == 5

    def test_rejects_directed_graph(self):
        with pytest.raises(ConfigurationError):
            Topology(nx.DiGraph())

    def test_rejects_missing_kind(self):
        g = nx.Graph()
        g.add_node("x")
        with pytest.raises(ConfigurationError):
            Topology(g)

    def test_rejects_nonpositive_capacity(self):
        g = tiny_graph()
        g.edges["h1", "s1"]["capacity"] = 0.0
        with pytest.raises(ConfigurationError):
            Topology(g)

    def test_rejects_multihomed_host(self):
        g = tiny_graph()
        g.add_edge("h1", "s2", capacity=1e9)
        with pytest.raises(ConfigurationError):
            Topology(g)

    def test_attachment_switch(self, tiny):
        assert tiny.attachment_switch("h1") == "s1"
        with pytest.raises(ConfigurationError):
            tiny.attachment_switch("s1")
        with pytest.raises(ConfigurationError, match="h9"):
            tiny.attachment_switch("h9")

    @pytest.mark.parametrize("lookup", ["kind", "is_host", "is_switch"])
    def test_unknown_node_lookup_names_the_node(self, tiny, lookup):
        with pytest.raises(ConfigurationError, match="h9"):
            getattr(tiny, lookup)("h9")

    def test_stranded_flows_on_a_foreign_path_names_the_node(self):
        from repro.consolidation.repair import stranded_flows
        from repro.flows import Flow, TrafficSet
        from repro.netsim.network import Routing
        from repro.topology import FatTree

        ft = FatTree(4)
        assert "h0_0_0" in ft.hosts and "h0_0_1" in ft.hosts
        traffic = TrafficSet([Flow("f", "h0_0_0", "h0_0_1", 1e6)])
        foreign = Routing({"f": ("h0_0_0", "h5_0_0", "h0_0_1")})
        with pytest.raises(ConfigurationError, match="h5_0_0"):
            stranded_flows(traffic, foreign, ft.full_subnet())

    def test_capacity_lookup(self, tiny):
        assert tiny.capacity("h1", "s1") == pytest.approx(1e9)
        with pytest.raises(ConfigurationError):
            tiny.capacity("h1", "h2")

    def test_switch_links_canonical(self, tiny):
        links = tiny.switch_links("s1")
        assert canonical_link("h1", "s1") in links
        assert all(l == canonical_link(*l) for l in links)


class TestActiveSubnet:
    def test_full_subnet(self, tiny):
        sub = tiny.full_subnet()
        assert sub.n_switches_on == 3
        assert sub.n_links_on == 5
        assert sub.connects_all_hosts()

    def test_minimal_valid_subnet(self, tiny):
        sub = tiny.subnet(
            {"s1", "s2"},
            {("h1", "s1"), ("h2", "s2"), ("s1", "s2")},
        )
        assert sub.connects("h1", "h2")
        assert not sub.is_switch_on("s3")

    def test_link_on_requires_switch_on(self, tiny):
        with pytest.raises(ConfigurationError):
            tiny.subnet({"s1", "s2"}, {("h1", "s1"), ("h2", "s2"), ("s1", "s3")})

    def test_switch_on_requires_a_link(self, tiny):
        with pytest.raises(ConfigurationError):
            tiny.subnet({"s1", "s2", "s3"}, {("h1", "s1"), ("h2", "s2"), ("s1", "s2")})

    def test_host_attachment_must_be_on(self, tiny):
        with pytest.raises(ConfigurationError):
            tiny.subnet({"s1", "s2"}, {("h1", "s1"), ("s1", "s2")})

    def test_unknown_switch_rejected(self, tiny):
        with pytest.raises(ConfigurationError):
            tiny.subnet({"sX"}, set())

    def test_disconnection_detected(self, tiny):
        # Turn off the two bridges: hosts become disconnected but the
        # subnet itself is structurally valid.
        sub = tiny.subnet({"s1", "s2"}, {("h1", "s1"), ("h2", "s2")})
        assert not sub.connects_all_hosts()
        assert not sub.connects("h1", "h2")

    def test_network_power_counts_on_devices(self, tiny):
        from repro.power import LinkPowerModel, SwitchPowerModel

        sub = tiny.subnet(
            {"s1", "s2"}, {("h1", "s1"), ("h2", "s2"), ("s1", "s2")}
        )
        sw, ln = sub.network_power(SwitchPowerModel(36.0), LinkPowerModel(1.0))
        assert sw == pytest.approx(2 * 36.0)
        assert ln == pytest.approx(3 * 1.0)

    def test_union(self, tiny):
        a = tiny.subnet({"s1", "s2"}, {("h1", "s1"), ("h2", "s2"), ("s1", "s2")})
        b = tiny.subnet(
            {"s1", "s2", "s3"},
            {("h1", "s1"), ("h2", "s2"), ("s1", "s3"), ("s2", "s3")},
        )
        u = a.union(b)
        assert u.n_switches_on == 3
        assert u.n_links_on == 5

    def test_active_graph_has_capacities(self, tiny):
        sub = tiny.full_subnet()
        g = sub.active_graph()
        assert g.edges["s1", "s2"]["capacity"] == pytest.approx(1e9)


def _verdict(check, topo, switches_on, links_on):
    """``None`` when ``check`` accepts the on-sets, else its message."""
    try:
        check(topo, frozenset(switches_on), frozenset(links_on))
    except ConfigurationError as exc:
        return str(exc)
    return None


_SUBNET_TREES = {k: FatTree(k) for k in (4, 6)}

#: The five invariants a subnet can break, in the order they are
#: checked, with a fragment of the message that names each.
_BREAK_MESSAGES = {
    "unknown-switch": "unknown switches",
    "unknown-link": "unknown links",
    "link-to-dark-switch": "is on but switch",
    "idle-switch": "is on with no active links",
    "dark-attachment": "attachment link is off",
}
_BREAKS = tuple(_BREAK_MESSAGES)


def _break(topo, switches, links, kind, pick):
    """Break one invariant of the on-sets in place; ``pick`` chooses
    among candidates."""
    if kind == "unknown-switch":
        switches.add(pick(["no-such-switch", topo.hosts[0]]))
    elif kind == "unknown-link":
        u, v = pick(list(topo.links))
        links.add(pick([(v, u), (u, "no-such-node")]))
    elif kind == "link-to-dark-switch":
        lit = sorted(sw for sw in switches if sw in topo.switches)
        if lit:
            switches.discard(pick(lit))
    elif kind == "idle-switch":
        dark = sorted(set(topo.switches) - switches)
        if dark:
            switches.add(pick(dark))
        else:
            links.difference_update(topo.switch_links(pick(list(topo.switches))))
    else:
        attachments = sorted(canonical_link(h, topo.attachment_switch(h)) for h in topo.hosts)
        links.discard(pick(attachments))


class TestSubnetCheckMatchesOracle:
    """The set-algebra check against the loop in ``tests/oracles/topology.py``:
    the same subnets accepted, the rest rejected with the same message."""

    @staticmethod
    def _check_production(topo, switches_on, links_on):
        ActiveSubnet(topo, switches_on, links_on)

    @settings(max_examples=300, deadline=None)
    @given(
        arity=st.sampled_from(sorted(_SUBNET_TREES)),
        data=st.data(),
        breaks=st.lists(st.sampled_from(_BREAKS), max_size=3),
    )
    def test_random_on_sets(self, arity, data, breaks):
        topo = _SUBNET_TREES[arity]
        links = set(
            data.draw(st.lists(st.sampled_from(topo.links), max_size=len(topo.links)))
        )
        if data.draw(st.booleans()):
            links |= {canonical_link(h, topo.attachment_switch(h)) for h in topo.hosts}
        switches = {end for link in links for end in link if topo.is_switch(end)}
        for kind in breaks:
            _break(topo, switches, links, kind, lambda xs: data.draw(st.sampled_from(xs)))
        expected = _verdict(reference_check_subnet, topo, switches, links)
        assert _verdict(self._check_production, topo, switches, links) == expected

    @pytest.mark.parametrize("arity", sorted(_SUBNET_TREES))
    @pytest.mark.parametrize("kind", _BREAKS)
    def test_each_break_is_rejected_with_the_oracle_message(self, arity, kind):
        topo = _SUBNET_TREES[arity]
        full = topo.full_subnet()
        switches, links = set(full.switches_on), set(full.links_on)
        if kind == "idle-switch":
            core = topo.switches_of_kind(NodeKind.CORE)[0]
            links.difference_update(topo.switch_links(core))
        else:
            _break(topo, switches, links, kind, lambda xs: xs[0])
        expected = _verdict(reference_check_subnet, topo, switches, links)
        assert _BREAK_MESSAGES[kind] in expected
        assert _verdict(self._check_production, topo, switches, links) == expected

    def test_full_subnet_accepted(self):
        for topo in _SUBNET_TREES.values():
            full = topo.full_subnet()
            assert _verdict(reference_check_subnet, topo, full.switches_on, full.links_on) is None

    def test_switch_links_are_cached_sorted_and_canonical(self):
        topo = _SUBNET_TREES[4]
        for sw in topo.switches:
            links = topo.switch_links(sw)
            assert links is topo.switch_links(sw)
            assert links == tuple(sorted(canonical_link(sw, n) for n in topo.graph[sw]))
        host = topo.hosts[0]
        assert topo.switch_links(host) == (canonical_link(host, topo.attachment_switch(host)),)
        with pytest.raises(KeyError):
            topo.switch_links("no-such-node")
