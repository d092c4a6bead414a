"""Traffic-set construction: the flow populations the experiments route.

Builds the two traffic components of the paper's evaluation:

* **search traffic** — the partition–aggregation pattern: every user
  query fans out from one aggregator host to the other hosts (ISNs) as
  request flows, and the ISNs reply back.  Per-flow bandwidth is small
  (default 20 Mbps, matching Fig. 2's example flows).
* **background traffic** — latency-tolerant elephant flows between
  random host pairs, scaled so aggregate demand hits a target fraction
  of bisection/link capacity (the paper sweeps 1 %–50 %).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng
from ..topology.graph import Topology
from ..units import MBPS
from .flow import Flow, FlowClass, copies_with_demands

__all__ = ["TrafficSet", "search_flows", "background_flows", "combined_traffic"]


class TrafficSet:
    """An ordered, id-unique collection of flows offered to the DCN."""

    def __init__(self, flows=()):
        self._flows: list[Flow] = []
        self._by_id: dict[str, Flow] = {}
        self._demand_arr: np.ndarray | None = None
        self._ls_mask: np.ndarray | None = None
        for f in flows:
            self.add(f)

    def add(self, flow: Flow) -> None:
        if flow.flow_id in self._by_id:
            raise ConfigurationError(f"duplicate flow id {flow.flow_id!r}")
        self._flows.append(flow)
        self._by_id[flow.flow_id] = flow
        self._demand_arr = None
        self._ls_mask = None

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (demand, latency-sensitive-mask) arrays in flow order."""
        if self._demand_arr is None:
            self._demand_arr = np.array([f.demand_bps for f in self._flows])
            self._ls_mask = np.array(
                [f.is_latency_sensitive for f in self._flows], dtype=bool
            )
        return self._demand_arr, self._ls_mask

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows)

    def __getitem__(self, flow_id: str) -> Flow:
        return self._by_id[flow_id]

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._by_id

    @property
    def flows(self) -> tuple[Flow, ...]:
        return tuple(self._flows)

    @property
    def latency_sensitive(self) -> tuple[Flow, ...]:
        return tuple(f for f in self._flows if f.is_latency_sensitive)

    @property
    def latency_tolerant(self) -> tuple[Flow, ...]:
        return tuple(f for f in self._flows if not f.is_latency_sensitive)

    def total_demand_bps(self) -> float:
        demand, _ = self._arrays()
        return float(demand.sum())

    def total_reserved_bps(self, scale_factor: float) -> float:
        """Total link reservation at scale factor ``K``."""
        demand, ls = self._arrays()
        if demand.size and scale_factor < 1.0:
            raise ConfigurationError(f"scale factor must be >= 1, got {scale_factor}")
        return float(np.where(ls, scale_factor * demand, demand).sum())

    def with_demands(self, demand, replace) -> "TrafficSet":
        """This set with ``demand[i]`` as flow ``i``'s demand wherever
        ``replace[i]`` is set (flow order).

        The new demands are checked in one pass, with :class:`Flow`'s
        error for the first bad one.  Only flows whose demand actually
        changes are copied, every other field from the already-validated
        original; the rest of the view shares the original objects.
        """
        demand = np.asarray(demand, dtype=float)
        replace = np.asarray(replace, dtype=bool)
        if demand.shape != (len(self._flows),) or replace.shape != demand.shape:
            raise ConfigurationError(
                f"need one demand and one replace flag per flow ({len(self._flows)}), "
                f"got shapes {demand.shape} and {replace.shape}"
            )
        at = np.flatnonzero(replace)
        new = demand[at]
        bad = ~(np.isfinite(new) & (new > 0))
        if bad.any():
            i = int(at[np.argmax(bad)])
            raise ConfigurationError(
                f"flow {self._flows[i].flow_id!r}: demand must be positive and finite, "
                f"got {float(demand[i])}"
            )
        base_demand, ls = self._arrays()
        flows = list(self._flows)
        at = np.flatnonzero(replace & (demand != base_demand)).tolist()
        for i, flow in zip(at, copies_with_demands([flows[i] for i in at], demand[at].tolist())):
            flows[i] = flow
        out = TrafficSet()
        out._flows = flows
        # ``_by_id`` lists the ids in flow order, and they are unique.
        out._by_id = dict(zip(self._by_id, flows))
        out._demand_arr = np.where(replace, demand, base_demand)
        out._ls_mask = ls
        return out

    def merged_with(self, other: "TrafficSet") -> "TrafficSet":
        return TrafficSet(list(self._flows) + list(other.flows))


def search_flows(
    topology: Topology,
    aggregator: str,
    demand_bps: float = 20 * MBPS,
    deadline_s: float = 5e-3,
    include_replies: bool = True,
) -> TrafficSet:
    """Partition–aggregation search traffic rooted at ``aggregator``.

    One latency-sensitive request flow from the aggregator to every
    other host, and (optionally) one reply flow back.  Default 20 Mbps
    per flow and 5 ms network budget, the paper's running example.
    """
    if aggregator not in topology.hosts:
        raise ConfigurationError(f"aggregator {aggregator!r} is not a host")
    ts = TrafficSet()
    for host in topology.hosts:
        if host == aggregator:
            continue
        ts.add(
            Flow(
                flow_id=f"req:{aggregator}->{host}",
                src=aggregator,
                dst=host,
                demand_bps=demand_bps,
                flow_class=FlowClass.LATENCY_SENSITIVE,
                deadline_s=deadline_s,
            )
        )
        if include_replies:
            ts.add(
                Flow(
                    flow_id=f"rep:{host}->{aggregator}",
                    src=host,
                    dst=aggregator,
                    demand_bps=demand_bps,
                    flow_class=FlowClass.LATENCY_SENSITIVE,
                    deadline_s=deadline_s,
                )
            )
    return ts


def background_flows(
    topology: Topology,
    utilization: float,
    n_flows: int | None = None,
    seed_or_rng=None,
) -> TrafficSet:
    """Latency-tolerant elephants targeting a link-utilization level.

    ``utilization`` is the target fraction of host-uplink capacity
    consumed by background traffic (the paper's "background traffic at
    X % of link capacity").  Each of ``n_flows`` elephants (default:
    one per host) runs between a distinct random source and a random
    destination, sized so the *mean source uplink* carries the target
    utilization.
    """
    if not 0.0 <= utilization < 1.0:
        raise ConfigurationError(f"utilization {utilization} outside [0, 1)")
    rng = ensure_rng(seed_or_rng)
    hosts = list(topology.hosts)
    if len(hosts) < 2:
        raise ConfigurationError("background traffic needs at least two hosts")
    if n_flows is None:
        n_flows = len(hosts)
    if n_flows < 0:
        raise ConfigurationError(f"n_flows must be non-negative, got {n_flows}")

    ts = TrafficSet()
    if n_flows == 0 or utilization == 0.0:
        return ts

    # Each source uplink should carry `utilization * capacity`; spread
    # sources round-robin so no uplink is double-loaded beyond target.
    # Destinations follow a random *derangement* of the host list so
    # each host also receives the target utilization on its downlink —
    # two elephants colliding on one access link would make the offered
    # load physically unroutable at high utilization.
    srcs = [hosts[i % len(hosts)] for i in range(n_flows)]
    flows_per_src = Counter(srcs)
    dst_cycle = _derangement(hosts, rng)
    dst_of = dict(zip(hosts, dst_cycle))
    for i, src in enumerate(srcs):
        uplink_cap = topology.capacity(src, topology.attachment_switch(src))
        demand = utilization * uplink_cap / flows_per_src[src]
        dst = dst_of[src]
        ts.add(
            Flow(
                flow_id=f"bg:{i}:{src}->{dst}",
                src=src,
                dst=dst,
                demand_bps=demand,
                flow_class=FlowClass.LATENCY_TOLERANT,
            )
        )
    return ts


def _derangement(items, rng) -> list[str]:
    """A random permutation of ``items`` with no fixed points.

    Fisher–Yates followed by fixing residual self-mappings by swapping
    with a neighbour (always possible for two or more items).
    """
    n = len(items)
    perm = list(rng.permutation(n))
    for i in range(n):
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return [items[p] for p in perm]


def combined_traffic(
    topology: Topology,
    aggregator: str,
    background_utilization: float,
    query_demand_bps: float = 20 * MBPS,
    deadline_s: float = 5e-3,
    seed_or_rng=None,
) -> TrafficSet:
    """Search traffic plus background elephants — the paper's mix."""
    search = search_flows(
        topology, aggregator, demand_bps=query_demand_bps, deadline_s=deadline_s
    )
    bg = background_flows(topology, background_utilization, seed_or_rng=seed_or_rng)
    return search.merged_with(bg)
