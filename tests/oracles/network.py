"""String-keyed reference implementations of the network layer.

Production consolidation and the flow-level network model run on the
integer-indexed :mod:`repro.netfast` arrays.  The classes here are the
original string-keyed loops they were derived from, kept only as the
executable specification: every output — routing, active subnet,
objective, per-link utilization, per-flow samples, pooled latency
summary and error message — must be bit-identical to production
(``tests/test_netfast_equivalence.py`` and
``tests/test_netfast_properties.py`` enforce it).

* :class:`ReferenceGreedyConsolidator` — the greedy packer with the
  dict/set residual and active-device bookkeeping and per-pair path
  caches of :func:`~repro.topology.paths.shortest_paths` output;
* :func:`reference_route_on_subnet` — :func:`route_on_subnet` over it;
* :class:`ReferenceNetworkModel` — utilization as a dict loop, every
  query answered from that dict.
"""

from __future__ import annotations

import numpy as np

from repro.consolidation.base import ConsolidationResult, link_reservation
from repro.consolidation.heuristic import GreedyConsolidator, _stranded
from repro.errors import ConfigurationError
from repro.flows.prediction import usable_capacity
from repro.flows.traffic import TrafficSet
from repro.netsim.latency import LinkLatencyModel, sample_pooled_path_delays
from repro.netsim.network import NetworkModel, Routing
from repro.rng import ensure_rng
from repro.stats import LatencySummary
from repro.topology.graph import ActiveSubnet, Topology, canonical_link
from repro.topology.paths import shortest_paths

__all__ = [
    "ReferenceGreedyConsolidator",
    "reference_route_on_subnet",
    "ReferenceNetworkModel",
]


class ReferenceGreedyConsolidator(GreedyConsolidator):
    """:class:`GreedyConsolidator` with the string-keyed packing loop."""

    def __init__(self, topology: Topology, *args, **kwargs):
        super().__init__(topology, *args, **kwargs)
        self._path_cache: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        # Hoisted per-consolidator invariants (lazy).
        self._ref_baseline: tuple[frozenset, frozenset] | None = None
        self._allowed_path_cache: dict[tuple[str, str], tuple] = {}

    def _paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = shortest_paths(self.topology, src, dst)
            self._lru_insert(self._path_cache, key, cached)
        else:
            self._lru_touch(self._path_cache, key)
        return cached

    def _allowed_paths(self, src: str, dst: str) -> tuple:
        """``(index, path)`` pairs surviving the fixed allowed subnet.

        Pure topology + fixed subnet, so cached per pair (bounded LRU).
        Original path indices are preserved, keeping the leftmost
        tie-break identical.
        """
        key = (src, dst)
        cached = self._allowed_path_cache.get(key)
        if cached is None:
            cached = tuple(
                (idx, path)
                for idx, path in enumerate(self._paths(src, dst))
                if self._path_allowed(path)
            )
            self._lru_insert(self._allowed_path_cache, key, cached)
        else:
            self._lru_touch(self._allowed_path_cache, key)
        return cached

    def _path_allowed(self, path: tuple[str, ...]) -> bool:
        if self.allowed_subnet is None:
            return True
        sub = self.allowed_subnet
        for node in path:
            if self.topology.is_switch(node) and not sub.is_switch_on(node):
                return False
        for u, v in zip(path[:-1], path[1:]):
            if not sub.is_link_on(u, v):
                return False
        return True

    def _pack_once(
        self,
        traffic: TrafficSet,
        scale_factor: float,
        attempt: int,
        priority: tuple[str, ...] = (),
        excluded: tuple[frozenset, frozenset] = GreedyConsolidator._NO_EXCLUSIONS,
    ) -> ConsolidationResult:
        topo = self.topology
        excl_switches, excl_links = excluded

        def path_survives(path: tuple[str, ...]) -> bool:
            if not excl_switches and not excl_links:
                return True
            if any(node in excl_switches for node in path):
                return False
            return not any(
                canonical_link(u, v) in excl_links
                for u, v in zip(path[:-1], path[1:])
            )
        residual: dict[tuple[str, str], float] = {}

        def residual_of(u: str, v: str) -> float:
            key = (u, v)
            if key not in residual:
                residual[key] = usable_capacity(topo.capacity(u, v), self.safety_margin_bps)
            return residual[key]

        # Devices that are on no matter what: host attachment links and
        # their edge switches (servers are never disconnected).  With a
        # fixed allowed subnet the power bill is already sunk, so every
        # allowed device counts as active and routing degenerates to
        # pure load balancing — exactly what an operator wants from the
        # switches deliberately left on.  The baseline is pure topology
        # + fixed subnet, hoisted across restart attempts (and across
        # consolidate() calls).
        if self._ref_baseline is None:
            base_switches: set[str] = set()
            base_links: set[tuple[str, str]] = set()
            if self.allowed_subnet is not None:
                base_switches.update(self.allowed_subnet.switches_on)
                base_links.update(self.allowed_subnet.links_on)
            for host in topo.hosts:
                sw = topo.attachment_switch(host)
                base_switches.add(sw)
                base_links.add(canonical_link(host, sw))
            self._ref_baseline = (frozenset(base_switches), frozenset(base_links))
        active_switches = set(self._ref_baseline[0])
        active_links = set(self._ref_baseline[1])

        sw_delta, ln_delta = self._activation_deltas()

        def find_best_path(flow, k):
            """Cheapest feasible path for ``flow`` at scale ``k`` (or None).

            Primary key: switch/link activation power (consolidation).
            Secondary key: *largest bottleneck residual* — among already
            powered paths, spread load rather than stack it; pure
            leftmost packing strands later elephants behind full links.
            Final key: leftmost path index, for determinism.
            """
            best = None  # (activation_watts, -bottleneck_residual, path_index, path)
            for idx, path in self._allowed_paths(flow.src, flow.dst):
                if not path_survives(path):
                    continue
                bottleneck = min(
                    residual_of(u, v) - link_reservation(flow, k, topo, u, v)
                    for u, v in zip(path[:-1], path[1:])
                )
                if bottleneck < 0:
                    continue
                n_new_switches = sum(
                    1
                    for node in path
                    if topo.is_switch(node) and node not in active_switches
                )
                n_new_links = sum(
                    1
                    for u, v in zip(path[:-1], path[1:])
                    if canonical_link(u, v) not in active_links
                )
                cost = n_new_switches * sw_delta + n_new_links * ln_delta
                candidate = (cost, -bottleneck, idx, path)
                if best is None or candidate[:3] < best[:3]:
                    best = candidate
            return best

        paths: dict[str, tuple[str, ...]] = {}
        for flow in self._ordered_flows(traffic, scale_factor, attempt, priority):
            best = find_best_path(flow, scale_factor)
            if best is None:
                raise _stranded(flow, scale_factor)
            path = best[-1]
            paths[flow.flow_id] = path
            for u, v in zip(path[:-1], path[1:]):
                residual[(u, v)] = residual_of(u, v) - link_reservation(
                    flow, scale_factor, topo, u, v
                )
            for node in path:
                if topo.is_switch(node):
                    active_switches.add(node)
            for u, v in zip(path[:-1], path[1:]):
                active_links.add(canonical_link(u, v))

        subnet = ActiveSubnet(topo, frozenset(active_switches), frozenset(active_links))
        return ConsolidationResult(
            routing=Routing(paths),
            subnet=subnet,
            scale_factor=scale_factor,
            objective_watts=self._network_power(subnet),
            solver="heuristic",
        )


def reference_route_on_subnet(
    subnet: ActiveSubnet,
    traffic: TrafficSet,
    scale_factor: float = 1.0,
    safety_margin_bps: float = 50e6,
) -> ConsolidationResult:
    """:func:`~repro.consolidation.heuristic.route_on_subnet` over the oracle."""
    consolidator = ReferenceGreedyConsolidator(
        subnet.topology,
        safety_margin_bps=safety_margin_bps,
        allowed_subnet=subnet,
    )
    packed = consolidator.consolidate(traffic, scale_factor)
    sw, ln = subnet.network_power(consolidator.switch_model, consolidator.link_model)
    return ConsolidationResult(
        routing=packed.routing,
        subnet=subnet,
        scale_factor=scale_factor,
        objective_watts=sw + ln,
        solver="heuristic",
    )


class ReferenceNetworkModel(NetworkModel):
    """:class:`NetworkModel` over a string-keyed utilization dict."""

    def __init__(
        self,
        topology: Topology,
        traffic: TrafficSet,
        routing: Routing,
        link_model: LinkLatencyModel | None = None,
    ):
        self.topology = topology
        self.traffic = traffic
        self.routing = routing
        self.link_model = link_model or LinkLatencyModel()
        for flow in traffic:
            if flow.flow_id not in routing:
                raise ConfigurationError(f"flow {flow.flow_id!r} has no route")
            path = routing.path(flow.flow_id)
            if path[0] != flow.src or path[-1] != flow.dst:
                raise ConfigurationError(
                    f"flow {flow.flow_id!r}: route endpoints {path[0]!r}->{path[-1]!r} "
                    f"do not match flow {flow.src!r}->{flow.dst!r}"
                )
            for u, v in zip(path[:-1], path[1:]):
                if not topology.has_link(u, v):
                    raise ConfigurationError(
                        f"flow {flow.flow_id!r}: route uses missing link ({u!r}, {v!r})"
                    )
        self._utilization = self._compute_utilization()

    def _compute_utilization(self) -> dict[tuple[str, str], float]:
        """Directed per-link utilization from actual flow demands."""
        load: dict[tuple[str, str], float] = {}
        for flow in self.traffic:
            for link in self.routing.directed_links(flow.flow_id):
                load[link] = load.get(link, 0.0) + flow.demand_bps
        return {
            link: demand / self.topology.capacity(*link)
            for link, demand in load.items()
        }

    def utilization(self, u: str, v: str) -> float:
        return self._utilization.get((u, v), 0.0)

    @property
    def link_utilizations(self) -> dict[tuple[str, str], float]:
        return dict(self._utilization)

    def max_utilization(self) -> float:
        return max(self._utilization.values(), default=0.0)

    def overloaded_links(self, threshold: float = 1.0) -> list[tuple[str, str]]:
        return sorted(l for l, u in self._utilization.items() if u >= threshold)

    def path_utilizations(self, flow_id: str) -> np.ndarray:
        return np.array(
            [self._utilization.get(l, 0.0) for l in self.routing.directed_links(flow_id)]
        )

    def query_latency_summary(self, n_per_flow: int = 2000, seed_or_rng=None) -> LatencySummary:
        rng = ensure_rng(seed_or_rng)
        ls = self.traffic.latency_sensitive
        if not ls:
            raise ConfigurationError("no latency-sensitive flows to summarize")
        pools = [self.path_utilizations(f.flow_id) for f in ls]
        utils = np.concatenate(pools)
        flow_of_hop = np.repeat(np.arange(len(ls)), [p.size for p in pools])
        samples = sample_pooled_path_delays(
            self.link_model, utils, flow_of_hop, len(ls), n_per_flow, rng
        )
        return LatencySummary.from_samples(samples.ravel())
