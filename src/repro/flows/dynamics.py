"""Flow churn: an evolving background-flow population.

The paper re-optimizes every 10 minutes because "bursty data center
traffic" changes between epochs — flows come and go and their rates
drift.  :class:`FlowChurnModel` generates that dynamic: a population of
latency-tolerant elephants where, each epoch,

* every flow survives with probability ``1 - 1/mean_lifetime_epochs``;
* departed flows are replaced by fresh ones (new random endpoints);
* every surviving flow's demand performs a bounded multiplicative
  random walk around the epoch's target utilization.

The model preserves flow identity across epochs so the controller's
per-flow demand predictors keep their history for surviving flows.

Endpoint balancing is incremental: each side (source, destination)
keeps every host's flow count and, per count, a bucket of host ranks
in host order.  A birth or a death moves one host per side between
adjacent buckets, so an epoch costs time linear in the flows it
touches, not in flows times hosts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng
from ..topology.graph import Topology
from .flow import Flow, FlowClass, copies_with_demands
from .traffic import TrafficSet

__all__ = ["FlowChurnModel"]


class FlowChurnModel:
    """Evolves background elephants across controller epochs."""

    def __init__(
        self,
        topology: Topology,
        n_flows: int | None = None,
        mean_lifetime_epochs: float = 4.0,
        demand_jitter: float = 0.15,
        max_demand_fraction: float = 0.75,
        flows_per_host: float = 1.0,
        seed_or_rng=None,
    ):
        if mean_lifetime_epochs < 1.0:
            raise ConfigurationError("mean lifetime must be >= 1 epoch")
        if not 0.0 <= demand_jitter < 1.0:
            raise ConfigurationError("demand jitter must lie in [0, 1)")
        if not 0.0 < max_demand_fraction <= 1.0:
            raise ConfigurationError("max demand fraction must lie in (0, 1]")
        if flows_per_host <= 0.0:
            raise ConfigurationError(f"flows_per_host must be > 0, got {flows_per_host}")
        hosts = list(topology.hosts)
        if len(hosts) < 2:
            raise ConfigurationError("flow churn needs at least two hosts")
        self.topology = topology
        #: Population density when ``n_flows`` is not given explicitly:
        #: the population is sized at ``round(n_hosts * flows_per_host)``
        #: (at least 1).  The default of 1.0 keeps the historical
        #: one-elephant-per-host sizing — and every golden hash — intact;
        #: raising it stresses the delta engine and the rule differ with
        #: denser churn.
        self.flows_per_host = flows_per_host
        self.n_flows = (
            n_flows if n_flows is not None else max(1, round(len(hosts) * flows_per_host))
        )
        if self.n_flows <= 0:
            raise ConfigurationError("n_flows must be positive")
        self.mean_lifetime_epochs = mean_lifetime_epochs
        self.demand_jitter = demand_jitter
        #: Per-flow demand ceiling as a fraction of access capacity —
        #: an elephant must always leave room on its access link for
        #: the latency-sensitive mice sharing it (a flow pinning its
        #: host's uplink would make the instance unroutable).
        self.max_demand_fraction = max_demand_fraction
        self._rng = ensure_rng(seed_or_rng)
        self._hosts = hosts
        self._rank = {h: i for i, h in enumerate(hosts)}
        self._src_loads = _EndpointLoads(len(hosts))
        self._dst_loads = _EndpointLoads(len(hosts))
        # Demands are sized against the first host's access link.
        self._access_capacity = topology.capacity(hosts[0], topology.attachment_switch(hosts[0]))
        if not 0.0 < self._access_capacity < math.inf:
            raise ConfigurationError(
                f"access capacity must be positive and finite, got {self._access_capacity}"
            )
        self._epoch = 0
        self._next_id = 0
        self._flows: dict[str, Flow] = {}
        self.births = 0
        self.deaths = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance(self, utilization: float) -> TrafficSet:
        """One epoch step: churn, drift, and return the new population.

        ``utilization`` is the epoch's target background level (e.g.
        from the diurnal trace).
        """
        if not 0.0 <= utilization < 1.0:
            raise ConfigurationError(f"utilization {utilization} outside [0, 1)")
        # Same sizing rule as background_flows: the population should
        # load the average access link to the target utilization.
        capacity = self._access_capacity
        target = max(utilization * capacity * len(self._hosts) / self.n_flows, 1.0)
        # Demands are clipped to a sane band around the target, under
        # the ceiling; both bounds are positive and finite, lo <= hi.
        ceiling = self.max_demand_fraction * capacity
        lo, hi = min(0.5 * target, ceiling), min(1.5 * target, ceiling)
        death_p = 1.0 / self.mean_lifetime_epochs
        random, normal, jitter = self._rng.random, self._rng.normal, self.demand_jitter
        rank, src_loads, dst_loads = self._rank, self._src_loads, self._dst_loads

        kept, demands = [], []
        for flow in self._flows.values():
            if random() < death_p:
                self.deaths += 1
                src_loads.remove(rank[flow.src])
                dst_loads.remove(rank[flow.dst])
                continue
            # Multiplicative drift, pulled toward the epoch target.
            demand = flow.demand_bps * float(np.exp(normal(0.0, jitter)))
            kept.append(flow)
            demands.append(min(max(demand, lo), hi))
        self._flows = {f.flow_id: f for f in copies_with_demands(kept, demands)}

        # Replacements see the current population (survivors plus flows
        # added this epoch).  Endpoints are balanced: each spawns at the
        # least-loaded source and destination access links (uniform
        # among ties) so the population stays physically routable at
        # high utilization — two elephants stacked on one host downlink
        # are unroutable.
        hosts = self._hosts
        while len(self._flows) < self.n_flows:
            demand = min(max(target * float(np.exp(normal(0.0, jitter))), lo), hi)
            src = src_loads.pick(self._rng)
            dst = dst_loads.pick(self._rng, exclude=src)
            src_loads.add(src)
            dst_loads.add(dst)
            fid = f"bgflow:{self._next_id}"
            self._next_id += 1
            self.births += 1
            self._flows[fid] = Flow(fid, hosts[src], hosts[dst], demand, FlowClass.LATENCY_TOLERANT)

        self._epoch += 1
        return TrafficSet(sorted(self._flows.values(), key=lambda f: f.flow_id))


class _EndpointLoads:
    """One side's per-host flow counts, with the hosts of each count
    kept in a bucket of ranks in host order."""

    __slots__ = ("load", "buckets")

    def __init__(self, n_hosts: int):
        self.load = [0] * n_hosts
        self.buckets = [list(range(n_hosts))]

    def _move(self, rank: int, step: int) -> None:
        level = self.load[rank]
        bucket = self.buckets[level]
        del bucket[bisect_left(bucket, rank)]
        level += step
        if level == len(self.buckets):
            self.buckets.append([])
        insort(self.buckets[level], rank)
        self.load[rank] = level

    def add(self, rank: int) -> None:
        self._move(rank, 1)

    def remove(self, rank: int) -> None:
        self._move(rank, -1)

    def pick(self, rng: np.random.Generator, exclude: int = -1) -> int:
        """A uniform draw from the least-loaded hosts other than
        ``exclude``, indexed in host order."""
        for level, bucket in enumerate(self.buckets):
            n = len(bucket)
            if exclude >= 0 and self.load[exclude] == level:
                if n == 1:
                    continue
                i = int(rng.integers(n - 1))
                return bucket[i + (i >= bisect_left(bucket, exclude))]
            if n:
                return bucket[int(rng.integers(n))]
        raise AssertionError("a churn model has at least two hosts")
