"""Fast local repair: re-route stranded flows on a degraded subnet.

When devices fail mid-epoch the controller's first remedy is *local
repair* (the paper's backup-path discipline, Section IV-B): keep every
surviving flow pinned to its installed path and re-place only the
stranded flows onto devices that are already powered on.  No switch is
booted — repair completes at rule-install speed instead of paying the
72.52 s power-on latency.  Dark *links* between two live switches may
be enabled (bringing a port up is instantaneous next to a switch boot),
and the links actually lit are reported so the controller can account
for their power.

Placement mirrors the greedy heuristic's tie-breaking with switch
activation dropped (every live switch is sunk cost): stranded flows are
re-placed in decreasing reserved-bandwidth order, each onto the
feasible path that lights the fewest dark links, then the largest
bottleneck residual, leftmost on ties.  Raises
:class:`~repro.errors.InfeasibleError` when a stranded flow fits on no
live-switch path — the controller then escalates to a full
re-consolidation and, past that, to safe mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InfeasibleError
from ..flows.prediction import usable_capacity
from ..flows.traffic import TrafficSet
from ..netsim.network import Routing
from ..topology.graph import ActiveSubnet, Link, canonical_link
from ..topology.paths import active_paths
from .base import link_reservation

__all__ = ["LocalRepair", "stranded_flows", "local_repair"]


@dataclass(frozen=True)
class LocalRepair:
    """Outcome of a successful local repair."""

    routing: Routing
    subnet: ActiveSubnet
    repaired_flows: tuple[str, ...]
    lit_links: frozenset[Link]

    @property
    def n_repaired(self) -> int:
        return len(self.repaired_flows)


def stranded_flows(
    traffic: TrafficSet, routing: Routing | None, subnet: ActiveSubnet
) -> tuple[str, ...]:
    """Flow ids whose installed path no longer exists on ``subnet``.

    A flow with no installed path at all (not in ``routing``) counts as
    stranded — it needs placement either way.
    """
    stranded = []
    for flow in traffic:
        if routing is None or flow.flow_id not in routing:
            stranded.append(flow.flow_id)
            continue
        path = routing.path(flow.flow_id)
        alive = all(
            not subnet.topology.is_switch(node) or subnet.is_switch_on(node)
            for node in path
        ) and all(subnet.is_link_on(u, v) for u, v in zip(path[:-1], path[1:]))
        if not alive:
            stranded.append(flow.flow_id)
    return tuple(stranded)


def _reachable_subnet(
    subnet: ActiveSubnet, failed_links: frozenset[Link]
) -> ActiveSubnet:
    """``subnet`` extended with every healthy dark link between live
    switches — the search space of a no-boot repair."""
    topo = subnet.topology
    links = set(subnet.links_on)
    for u, v in topo.links:
        if (u, v) in failed_links:
            continue
        live = all(
            not topo.is_switch(end) or end in subnet.switches_on for end in (u, v)
        )
        if live:
            links.add((u, v))
    return ActiveSubnet(topo, subnet.switches_on, frozenset(links))


def local_repair(
    subnet: ActiveSubnet,
    traffic: TrafficSet,
    routing: Routing,
    scale_factor: float = 1.0,
    safety_margin_bps: float = 50e6,
    failed_links: frozenset[Link] = frozenset(),
) -> LocalRepair:
    """Re-place the stranded flows of ``routing`` on ``subnet``.

    ``subnet`` is the *degraded* active subnet (failed devices already
    pruned); ``failed_links`` names links that are broken outright and
    must not be re-lit.  Surviving flows keep their paths and their
    reservations; stranded flows pack into the remaining residual
    capacity of live switches.
    """
    topo = subnet.topology
    stranded = set(stranded_flows(traffic, routing, subnet))
    failed_links = frozenset(canonical_link(u, v) for u, v in failed_links)
    search = _reachable_subnet(subnet, failed_links)

    residual: dict[tuple[str, str], float] = {}

    def residual_of(u: str, v: str) -> float:
        key = (u, v)
        if key not in residual:
            residual[key] = usable_capacity(topo.capacity(u, v), safety_margin_bps)
        return residual[key]

    def reserve(flow, path) -> None:
        for u, v in zip(path[:-1], path[1:]):
            residual[(u, v)] = residual_of(u, v) - link_reservation(
                flow, scale_factor, topo, u, v
            )

    new_paths: dict[str, tuple[str, ...]] = {}
    for flow in traffic:
        if flow.flow_id in stranded:
            continue
        path = routing.path(flow.flow_id)
        new_paths[flow.flow_id] = path
        reserve(flow, path)

    lit: set[Link] = set()
    repaired: list[str] = []
    to_place = sorted(
        (traffic[fid] for fid in stranded),
        key=lambda f: (-f.reserved_bps(scale_factor), f.flow_id),
    )
    for flow in to_place:
        best = None  # (n_dark_links, -bottleneck, path_index, path)
        for idx, path in enumerate(active_paths(search, flow.src, flow.dst)):
            bottleneck = min(
                residual_of(u, v) - link_reservation(flow, scale_factor, topo, u, v)
                for u, v in zip(path[:-1], path[1:])
            )
            if bottleneck < 0:
                continue
            dark = sum(
                1
                for u, v in zip(path[:-1], path[1:])
                if not subnet.is_link_on(u, v)
                and canonical_link(u, v) not in lit
            )
            candidate = (dark, -bottleneck, idx, path)
            if best is None or candidate[:3] < best[:3]:
                best = candidate
        if best is None:
            raise InfeasibleError(
                f"local repair cannot place flow {flow.flow_id!r} on the "
                f"degraded subnet ({subnet.n_switches_on} switches on)"
            )
        path = best[-1]
        new_paths[flow.flow_id] = path
        reserve(flow, path)
        repaired.append(flow.flow_id)
        for u, v in zip(path[:-1], path[1:]):
            link = canonical_link(u, v)
            if link not in subnet.links_on:
                lit.add(link)

    repaired_subnet = ActiveSubnet(
        topo, subnet.switches_on, subnet.links_on | frozenset(lit)
    )
    return LocalRepair(
        routing=Routing(new_paths),
        subnet=repaired_subnet,
        repaired_flows=tuple(repaired),
        lit_links=frozenset(lit),
    )
