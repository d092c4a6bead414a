"""Quadratic reference implementation of the flow churn model.

Production :class:`~repro.flows.dynamics.FlowChurnModel` keeps each
host's source and destination load across calls, in per-load buckets
of host ranks, so a birth or a death touches one host per side.  The
class here is the design it replaced, kept only as the executable
specification (``tests/test_dynamics.py`` compares against it): every
birth rebuilds both endpoint-load dicts from the whole live population
and scans every host twice for the least-loaded pool.  Both must make
the same generator calls in the same order and return the same flows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.flows.flow import Flow, FlowClass
from repro.flows.traffic import TrafficSet
from repro.rng import ensure_rng
from repro.topology.graph import Topology

__all__ = ["ReferenceFlowChurnModel"]


class ReferenceFlowChurnModel:
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
        self.flows_per_host = flows_per_host
        self.n_flows = (
            n_flows if n_flows is not None else max(1, round(len(hosts) * flows_per_host))
        )
        if self.n_flows <= 0:
            raise ConfigurationError("n_flows must be positive")
        self.mean_lifetime_epochs = mean_lifetime_epochs
        self.demand_jitter = demand_jitter
        self.max_demand_fraction = max_demand_fraction
        self._rng = ensure_rng(seed_or_rng)
        self._hosts = hosts
        self._epoch = 0
        self._next_id = 0
        self._flows: dict[str, Flow] = {}
        self.births = 0
        self.deaths = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def _endpoint_loads(self) -> tuple[dict[str, int], dict[str, int]]:
        src_load = {h: 0 for h in self._hosts}
        dst_load = {h: 0 for h in self._hosts}
        for flow in self._flows.values():
            src_load[flow.src] += 1
            dst_load[flow.dst] += 1
        return src_load, dst_load

    def _new_flow(self, demand_bps: float) -> Flow:
        # Least-loaded source and destination, uniform among ties, in
        # host order; the destination pool leaves out the source.
        src_load, dst_load = self._endpoint_loads()

        def pick(load: dict[str, int], exclude: str | None = None) -> str:
            candidates = [h for h in self._hosts if h != exclude]
            low = min(load[h] for h in candidates)
            pool = [h for h in candidates if load[h] == low]
            return pool[int(self._rng.integers(len(pool)))]

        src = pick(src_load)
        dst = pick(dst_load, exclude=src)
        fid = f"bgflow:{self._next_id}"
        self._next_id += 1
        self.births += 1
        return Flow(fid, src, dst, demand_bps, FlowClass.LATENCY_TOLERANT)

    def _access_capacity(self) -> float:
        return self.topology.capacity(
            self._hosts[0], self.topology.attachment_switch(self._hosts[0])
        )

    def _target_demand(self, utilization: float) -> float:
        per_flow = utilization * self._access_capacity() * len(self._hosts) / self.n_flows
        return max(per_flow, 1.0)

    def _clip_demand(self, demand: float, target: float) -> float:
        ceiling = self.max_demand_fraction * self._access_capacity()
        return float(np.clip(demand, min(0.5 * target, ceiling), min(1.5 * target, ceiling)))

    def advance(self, utilization: float) -> TrafficSet:
        if not 0.0 <= utilization < 1.0:
            raise ConfigurationError(f"utilization {utilization} outside [0, 1)")
        target = self._target_demand(utilization)
        death_p = 1.0 / self.mean_lifetime_epochs

        survivors: dict[str, Flow] = {}
        for fid, flow in self._flows.items():
            if self._rng.random() < death_p:
                self.deaths += 1
                continue
            drift = float(np.exp(self._rng.normal(0.0, self.demand_jitter)))
            survivors[fid] = flow.with_demand(
                self._clip_demand(flow.demand_bps * drift, target)
            )

        self._flows = survivors
        while len(self._flows) < self.n_flows:
            jitter = float(np.exp(self._rng.normal(0.0, self.demand_jitter)))
            flow = self._new_flow(self._clip_demand(target * jitter, target))
            self._flows[flow.flow_id] = flow

        self._epoch += 1
        return TrafficSet(sorted(self._flows.values(), key=lambda f: f.flow_id))
