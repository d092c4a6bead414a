"""Flow-level network model: routing + utilization + per-flow latency.

Given a topology, a set of flows and a routing (flow → node path), the
:class:`NetworkModel` computes *directed* per-link utilization from the
flows' **actual** demands (not their K-scaled reservations — K only
shapes which paths the optimizer picks), then exposes per-flow latency
means, samples and tail percentiles via the
:class:`~repro.netsim.latency.LinkLatencyModel`.

This is the substrate that replaces the paper's MiniNet measurement
loop: it answers "what is the 95th/99th-percentile query latency under
this consolidation?" (Fig. 10/11) and "how much network slack does each
request have?" (input to EPRONS-Server).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..flows.traffic import TrafficSet
from ..rng import ensure_rng
from ..stats import LatencySummary
from ..topology.graph import Topology
from .latency import LinkLatencyModel, sample_pooled_path_delays

__all__ = ["Routing", "NetworkModel", "FlowLatency"]

Path = tuple[str, ...]


class Routing:
    """Immutable mapping of flow id → node path."""

    def __init__(self, paths: dict[str, Path]):
        for fid, path in paths.items():
            if len(path) < 2:
                raise ConfigurationError(f"flow {fid!r}: path too short {path}")
        self._paths = {fid: tuple(p) for fid, p in paths.items()}

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def get(self, flow_id: str) -> Path | None:
        """The flow's path, or ``None`` when it has no route."""
        return self._paths.get(flow_id)

    def path(self, flow_id: str) -> Path:
        try:
            return self._paths[flow_id]
        except KeyError:
            raise ConfigurationError(f"no route for flow {flow_id!r}") from None

    def items(self):
        return self._paths.items()

    def directed_links(self, flow_id: str) -> tuple[tuple[str, str], ...]:
        """The (src, dst)-ordered links the flow traverses."""
        p = self.path(flow_id)
        return tuple(zip(p[:-1], p[1:]))


@dataclass(frozen=True)
class FlowLatency:
    """Latency result for one flow."""

    flow_id: str
    mean_s: float
    summary: LatencySummary


class NetworkModel:
    """Computes utilization and latency for a routed traffic set.

    Parameters
    ----------
    topology:
        The physical topology (capacities).
    traffic:
        The offered flows.
    routing:
        A :class:`Routing` covering every flow in ``traffic``.
    link_model:
        Per-link latency model; defaults to the Fig-1 calibration.

    The routing is compiled into a :class:`~repro.netfast.RoutingMatrix`
    and utilization and pooled sampling run as array operations.  The
    original string-keyed loops are kept as the executable
    specification in ``tests/oracles/network.py``; outputs are
    bit-identical.
    """

    def __init__(
        self,
        topology: Topology,
        traffic: TrafficSet,
        routing: Routing,
        link_model: LinkLatencyModel | None = None,
    ):
        # Import here keeps netsim importable without the fast path
        # being a load-time dependency of the latency model itself.
        from ..netfast import RoutingMatrix, topology_index

        self.topology = topology
        self.traffic = traffic
        self.routing = routing
        self.link_model = link_model or LinkLatencyModel()
        self._index = topology_index(topology)
        # build() validates the routing against the traffic and the
        # topology, raising ConfigurationError on any mismatch.
        self._matrix = RoutingMatrix.build(self._index, traffic, routing)
        self._util_vec = self._matrix.utilization_vector()

    # -- utilization ------------------------------------------------------------

    def utilization(self, u: str, v: str) -> float:
        """Utilization of the *directed* link u→v (0 if unused)."""
        dlid = self._index.dlink_id.get((u, v))
        return float(self._util_vec[dlid]) if dlid is not None else 0.0

    @property
    def link_utilizations(self) -> dict[tuple[str, str], float]:
        """All nonzero directed-link utilizations."""
        return {
            self._index.dlink_name(d): float(self._util_vec[d])
            for d in np.flatnonzero(self._util_vec)
        }

    def max_utilization(self) -> float:
        """The most loaded directed link's utilization."""
        return float(self._util_vec.max()) if self._util_vec.size else 0.0

    def overloaded_links(self, threshold: float = 1.0) -> list[tuple[str, str]]:
        """Directed links at or above ``threshold`` utilization."""
        hit = (self._util_vec >= threshold) & (self._util_vec > 0.0)
        return sorted(self._index.dlink_name(d) for d in np.flatnonzero(hit))

    def path_utilizations(self, flow_id: str) -> np.ndarray:
        """Per-hop utilizations seen by one flow."""
        row = self._matrix.row_of.get(flow_id)
        if row is not None:
            return self._util_vec[self._matrix.hops_of(flow_id)]
        # Routed but not in the traffic set: resolve hop by hop,
        # treating links outside the topology as unused.
        dlink_id = self._index.dlink_id
        return np.array(
            [
                float(self._util_vec[d]) if (d := dlink_id.get(l)) is not None else 0.0
                for l in self.routing.directed_links(flow_id)
            ]
        )

    # -- latency -----------------------------------------------------------------

    def flow_mean_latency(self, flow_id: str) -> float:
        """Expected end-to-end latency (s) of one flow."""
        utils = self.path_utilizations(flow_id)
        return float(np.sum(self.link_model.mean_delay(utils)))

    def sample_flow_latency(self, flow_id: str, n: int, seed_or_rng=None) -> np.ndarray:
        """Draw ``n`` end-to-end latency samples for one flow."""
        rng = ensure_rng(seed_or_rng)
        utils = self.path_utilizations(flow_id)
        total = np.zeros(n)
        for u in utils:
            total += self.link_model.sample_delays(float(u), n, rng)
        return total

    def flow_latency(self, flow_id: str, n: int = 2000, seed_or_rng=None) -> FlowLatency:
        """Mean plus sampled percentile summary for one flow."""
        samples = self.sample_flow_latency(flow_id, n, seed_or_rng)
        return FlowLatency(
            flow_id=flow_id,
            mean_s=self.flow_mean_latency(flow_id),
            summary=LatencySummary.from_samples(samples),
        )

    def query_latency_summary(self, n_per_flow: int = 2000, seed_or_rng=None) -> LatencySummary:
        """Latency summary pooled over all latency-sensitive flows.

        This is the quantity behind Fig. 10/11: the tail latency of
        search queries under the current consolidation.
        """
        rng = ensure_rng(seed_or_rng)
        ls = self.traffic.latency_sensitive
        if not ls:
            raise ConfigurationError("no latency-sensitive flows to summarize")
        dlinks, flow_of_hop = self._matrix.concat_rows(
            self._matrix.row_of[f.flow_id] for f in ls
        )
        samples = sample_pooled_path_delays(
            self.link_model, self._util_vec[dlinks], flow_of_hop, len(ls), n_per_flow, rng
        )
        return LatencySummary.from_samples(samples.ravel())

    def sample_flow_slack(
        self, flow_id: str, budget_s: float, n: int, seed_or_rng=None
    ) -> np.ndarray:
        """Per-request network slack: ``budget - latency`` (may go negative).

        The EPRONS-Server governor adds this slack to each request's
        compute budget; negative slack *tightens* the server deadline.
        """
        if budget_s <= 0:
            raise ConfigurationError(f"network budget must be positive, got {budget_s}")
        return budget_s - self.sample_flow_latency(flow_id, n, seed_or_rng)
