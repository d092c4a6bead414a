"""Generic data-center topology wrapper.

A :class:`Topology` is an undirected graph of *hosts* and *switches*
with per-link capacities.  It is immutable after construction — which
devices are powered on is a separate, cheap-to-copy
:class:`ActiveSubnet` overlay, because EPRONS-Network's whole job is to
search over subnets of one fixed physical topology.

Node names are strings.  Links are canonicalized as sorted 2-tuples so
``("a", "b")`` and ``("b", "a")`` refer to the same physical link.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import networkx as nx

from ..errors import ConfigurationError
from ..power.models import LinkPowerModel, SwitchPowerModel

__all__ = ["NodeKind", "Link", "canonical_link", "Topology", "ActiveSubnet"]


def _unknown_node(node) -> ConfigurationError:
    return ConfigurationError(f"unknown node {node!r}: not in this topology")


class NodeKind:
    """Node role constants stored in the graph's node attributes."""

    HOST = "host"
    EDGE = "edge"
    AGG = "agg"
    CORE = "core"
    SWITCH = "switch"  # generic switch in non-fat-tree topologies

    #: Kinds that count as switches for power accounting.
    SWITCH_KINDS = frozenset({EDGE, AGG, CORE, SWITCH})
    ALL_KINDS = frozenset({HOST, EDGE, AGG, CORE, SWITCH})


Link = tuple[str, str]


def canonical_link(u: str, v: str) -> Link:
    """Return the canonical (sorted) form of an undirected link."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """An immutable host/switch graph with link capacities.

    Parameters
    ----------
    graph:
        An undirected :class:`networkx.Graph` whose nodes carry a
        ``kind`` attribute (one of :class:`NodeKind`) and whose edges
        carry a ``capacity`` attribute in bit/s.
    """

    def __init__(self, graph: nx.Graph):
        if graph.is_directed():
            raise ConfigurationError("Topology requires an undirected graph")
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("Topology must have at least one node")
        for node, data in graph.nodes(data=True):
            kind = data.get("kind")
            if kind not in NodeKind.ALL_KINDS:
                raise ConfigurationError(f"node {node!r} has invalid kind {kind!r}")
        for u, v, data in graph.edges(data=True):
            cap = data.get("capacity")
            if cap is None or cap <= 0:
                raise ConfigurationError(f"link ({u!r}, {v!r}) needs a positive capacity")
        for node, data in graph.nodes(data=True):
            if data["kind"] == NodeKind.HOST and graph.degree(node) != 1:
                raise ConfigurationError(
                    f"host {node!r} must attach to exactly one switch "
                    f"(degree {graph.degree(node)})"
                )
        self._graph = nx.freeze(graph)
        # Node kinds are immutable; a plain dict avoids the networkx
        # attribute-view indirection on the path-enumeration hot path.
        self._kind = {n: d["kind"] for n, d in graph.nodes(data=True)}
        self._hosts = tuple(sorted(n for n, d in graph.nodes(data=True) if d["kind"] == NodeKind.HOST))
        self._switches = tuple(
            sorted(n for n, d in graph.nodes(data=True) if d["kind"] in NodeKind.SWITCH_KINDS)
        )
        self._links = tuple(sorted(canonical_link(u, v) for u, v in graph.edges()))
        self._switches_by_kind: dict[str, tuple[str, ...]] = {}
        self._attachment = {h: next(iter(graph[h])) for h in self._hosts}
        # Set forms of the above for ActiveSubnet's invariant check, and
        # every node's incident links for switch_links; the graph is
        # frozen, so none of them can go stale.
        self._switch_set = frozenset(self._switches)
        self._link_set = frozenset(self._links)
        self._attachment_links = frozenset(
            canonical_link(h, s) for h, s in self._attachment.items()
        )
        self._switch_links = {
            node: tuple(sorted(canonical_link(node, nbr) for nbr in graph[node]))
            for node in graph
        }
        self._fingerprint: str | None = None

    # -- structural accessors ------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying (frozen) networkx graph."""
        return self._graph

    @property
    def hosts(self) -> tuple[str, ...]:
        """All host nodes, sorted."""
        return self._hosts

    @property
    def switches(self) -> tuple[str, ...]:
        """All switch nodes (any switch kind), sorted."""
        return self._switches

    @property
    def links(self) -> tuple[Link, ...]:
        """All undirected links in canonical form, sorted."""
        return self._links

    @property
    def n_hosts(self) -> int:
        return len(self._hosts)

    @property
    def n_switches(self) -> int:
        return len(self._switches)

    @property
    def n_links(self) -> int:
        return len(self._links)

    def kind(self, node: str) -> str:
        """The :class:`NodeKind` of ``node``.

        ``kind``, ``is_host`` and ``is_switch`` raise
        :class:`~repro.errors.ConfigurationError` for a node this
        topology does not have.
        """
        try:
            return self._kind[node]
        except KeyError:
            raise _unknown_node(node) from None

    def is_host(self, node: str) -> bool:
        try:
            return self._kind[node] == NodeKind.HOST
        except KeyError:
            raise _unknown_node(node) from None

    def is_switch(self, node: str) -> bool:
        try:
            return self._kind[node] in NodeKind.SWITCH_KINDS
        except KeyError:
            raise _unknown_node(node) from None

    def switches_of_kind(self, kind: str) -> tuple[str, ...]:
        """All switches of a specific kind (edge/agg/core), sorted."""
        cached = self._switches_by_kind.get(kind)
        if cached is None:
            cached = tuple(n for n in self._switches if self._kind[n] == kind)
            self._switches_by_kind[kind] = cached
        return cached

    def capacity(self, u: str, v: str) -> float:
        """Capacity (bit/s) of the link between ``u`` and ``v``."""
        if not self._graph.has_edge(u, v):
            raise ConfigurationError(f"no link between {u!r} and {v!r}")
        return float(self._graph.edges[u, v]["capacity"])

    def neighbors(self, node: str) -> Iterator[str]:
        return iter(self._graph[node])

    def has_link(self, u: str, v: str) -> bool:
        return self._graph.has_edge(u, v)

    def fingerprint(self) -> str:
        """Content digest of the physical graph (nodes, kinds, capacities).

        Two topologies with equal fingerprints are interchangeable for
        every pure-topology computation — node names, kinds, link set
        and per-link capacities all match — which is what lets compiled
        :class:`~repro.netfast.index.TopologyIndex` instances be shared
        across distinct but content-identical ``Topology`` objects
        (sweep tasks and benchmarks rebuild the same fat-tree over and
        over).  Computed once and cached; the graph is frozen.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            for node in self._hosts:
                h.update(f"h:{node}\0".encode())
            for node in self._switches:
                h.update(f"s:{node}:{self._kind[node]}\0".encode())
            for u, v in self._links:
                h.update(f"l:{u}:{v}:{self.capacity(u, v)!r}\0".encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def attachment_switch(self, host: str) -> str:
        """The single switch a host attaches to."""
        switch = self._attachment.get(host)
        if switch is None:
            raise ConfigurationError(f"{host!r} is not a host")
        return switch

    def switch_links(self, switch: str) -> tuple[Link, ...]:
        """All links incident to ``switch`` (any node), canonicalized and sorted."""
        return self._switch_links[switch]

    # -- subnet construction --------------------------------------------------

    def full_subnet(self) -> "ActiveSubnet":
        """An :class:`ActiveSubnet` with every device on."""
        return ActiveSubnet(self, frozenset(self._switches), frozenset(self._links))

    def subnet(self, switches_on: Iterable[str], links_on: Iterable[Link]) -> "ActiveSubnet":
        """Build a validated subnet from explicit on-sets."""
        return ActiveSubnet(self, frozenset(switches_on), frozenset(links_on))


@dataclass(frozen=True)
class ActiveSubnet:
    """Which switches/links of a :class:`Topology` are powered on.

    Invariants enforced at construction (matching the LP constraints
    Eq. 7–8 of the paper):

    * a link can only be on if both of its switch endpoints are on
      (host endpoints are always considered powered — servers are never
      turned off in EPRONS);
    * a switch that is on must have at least one on link (otherwise the
      LP would have turned it off);
    * every host's attachment link is on — hosts must stay reachable.
    """

    topology: Topology
    switches_on: frozenset[str]
    links_on: frozenset[Link]

    def __post_init__(self) -> None:
        topo = self.topology
        # Each invariant is one set test against the topology's cached
        # sets; only a broken one scans the on-sets, to name its first
        # offender.
        switches_on, links_on = self.switches_on, self.links_on
        unknown = switches_on - topo._switch_set
        if unknown:
            raise ConfigurationError(f"unknown switches in subnet: {sorted(unknown)}")
        unknown_links = links_on - topo._link_set
        if unknown_links:
            raise ConfigurationError(f"unknown links in subnet: {sorted(unknown_links)}")
        ends = set(chain.from_iterable(links_on))
        dark = topo._switch_set - switches_on
        if not ends.isdisjoint(dark):
            u, v, end = next((u, v, end) for u, v in links_on for end in (u, v) if end in dark)
            raise ConfigurationError(f"link ({u!r}, {v!r}) is on but switch {end!r} is off")
        if not switches_on <= ends:
            sw = next(sw for sw in switches_on if sw not in ends)
            raise ConfigurationError(f"switch {sw!r} is on with no active links")
        if not topo._attachment_links <= links_on:
            host = next(
                h
                for h in topo.hosts
                if canonical_link(h, topo.attachment_switch(h)) not in links_on
            )
            raise ConfigurationError(f"host {host!r} attachment link is off")

    # -- accessors -------------------------------------------------------------

    @property
    def n_switches_on(self) -> int:
        return len(self.switches_on)

    @property
    def n_links_on(self) -> int:
        return len(self.links_on)

    def is_switch_on(self, switch: str) -> bool:
        return switch in self.switches_on

    def is_link_on(self, u: str, v: str) -> bool:
        return canonical_link(u, v) in self.links_on

    def active_graph(self) -> nx.Graph:
        """A networkx view containing only powered-on devices (plus hosts)."""
        g = nx.Graph()
        for host in self.topology.hosts:
            g.add_node(host, kind=NodeKind.HOST)
        for sw in self.switches_on:
            g.add_node(sw, kind=self.topology.kind(sw))
        for u, v in self.links_on:
            if u in g and v in g:
                g.add_edge(u, v, capacity=self.topology.capacity(u, v))
        return g

    def connects(self, src: str, dst: str) -> bool:
        """True if ``src`` and ``dst`` are connected in the active subnet."""
        g = self.active_graph()
        return src in g and dst in g and nx.has_path(g, src, dst)

    def connects_all_hosts(self) -> bool:
        """True if every pair of hosts remains mutually reachable."""
        g = self.active_graph()
        hosts = self.topology.hosts
        if not hosts:
            return True
        component = nx.node_connected_component(g, hosts[0])
        return all(h in component for h in hosts)

    # -- power ------------------------------------------------------------------

    def network_power(
        self,
        switch_model: SwitchPowerModel | None = None,
        link_model: LinkPowerModel | None = None,
    ) -> tuple[float, float]:
        """(switch_watts, link_watts) for this subnet.

        Off devices are charged the models' sleep power, matching the
        LP objective which only counts ``X`` / ``Y`` indicator terms.
        """
        switch_model = switch_model or SwitchPowerModel()
        link_model = link_model or LinkPowerModel()
        switch_watts = 0.0
        for sw in self.topology.switches:
            switch_watts += switch_model.power(sw in self.switches_on)
        link_watts = 0.0
        for link in self.topology.links:
            link_watts += link_model.power(link in self.links_on)
        return switch_watts, link_watts

    # -- set algebra --------------------------------------------------------------

    def without(
        self,
        switches: Iterable[str] = (),
        links: Iterable[Link] = (),
    ) -> "ActiveSubnet":
        """Subnet surgery: this subnet with the given devices removed.

        Models device *failure*: the named switches/links go dark, every
        link incident to a removed switch goes with it, and switches
        left with no active link cascade off (the subnet invariant —
        an on switch must have an on link — would reject them anyway).
        Raises :class:`~repro.errors.ConfigurationError` when removal
        would sever a host's attachment link; EPRONS never powers
        servers off, so an edge-switch failure that strands a host is
        outside the model (the fault injector never generates one).
        """
        dead_switches = frozenset(switches) & self.switches_on
        dead_links = {canonical_link(u, v) for u, v in links} & self.links_on
        topo = self.topology
        attachment = {
            canonical_link(h, topo.attachment_switch(h)): h for h in topo.hosts
        }
        switches_on = set(self.switches_on) - dead_switches
        links_on = {
            (u, v)
            for u, v in self.links_on
            if (u, v) not in dead_links
            and u not in dead_switches
            and v not in dead_switches
        }
        for link in (self.links_on - links_on) & set(attachment):
            raise ConfigurationError(
                f"removing link {link} would strand host {attachment[link]!r}"
            )
        # Cascade: a switch whose links all died cannot stay on.
        changed = True
        while changed:
            changed = False
            for sw in sorted(switches_on):
                if not any(link in links_on for link in topo.switch_links(sw)):
                    switches_on.discard(sw)
                    changed = True
        return ActiveSubnet(topo, frozenset(switches_on), frozenset(links_on))

    def union(self, other: "ActiveSubnet") -> "ActiveSubnet":
        """Subnet with the union of both on-sets (same topology)."""
        if other.topology is not self.topology:
            raise ConfigurationError("cannot union subnets of different topologies")
        return ActiveSubnet(
            self.topology,
            self.switches_on | other.switches_on,
            self.links_on | other.links_on,
        )
