"""Compiled flow x directed-link incidence (CSR) for a routed traffic set.

Compiling a :class:`~repro.netsim.network.Routing` against a
:class:`~repro.netfast.index.TopologyIndex` validates it (same checks
and error messages as the string-keyed oracle model in
``tests/oracles/network.py``) and yields flat arrays: ``dlinks`` concatenates every flow's directed
link ids in hop order and ``indptr`` delimits the rows, exactly a CSR
incidence matrix with implicit unit values.  Per-link utilization is
then one ``np.add.at`` scatter-add; because ``np.add.at`` accumulates
element-by-element in array order, the per-link sums add the very same
demands in the very same order as the oracle's dict loop — the sums
are bit-identical, not merely close.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import ConfigurationError
from .index import TopologyIndex

__all__ = ["RoutingMatrix"]


class RoutingMatrix:
    """CSR flow x directed-link incidence for one (traffic, routing) pair."""

    __slots__ = ("index", "flow_ids", "row_of", "indptr", "dlinks", "demands")

    def __init__(self, index, flow_ids, row_of, indptr, dlinks, demands):
        self.index = index
        self.flow_ids = flow_ids
        self.row_of = row_of
        self.indptr = indptr
        self.dlinks = dlinks
        self.demands = demands

    @classmethod
    def build(cls, index: TopologyIndex, traffic, routing) -> "RoutingMatrix":
        """Validate ``routing`` against ``traffic`` and compile it.

        Raises :class:`~repro.errors.ConfigurationError` on an unrouted
        flow, mismatched endpoints, or a hop over a missing link — the
        same contract (and messages) as the oracle model.  Each path
        resolves in one lookup of the index's route memo
        (:meth:`~repro.netfast.index.TopologyIndex.route_dlinks`).
        """
        route_of, route_dlinks = routing.get, index.route_dlinks
        flow_ids: list[str] = []
        demands: list[float] = []
        routes: list[tuple[int, ...]] = []
        for flow in traffic:
            fid = flow.flow_id
            path = route_of(fid)
            if path is None:
                raise ConfigurationError(f"flow {fid!r} has no route")
            if path[0] != flow.src or path[-1] != flow.dst:
                raise ConfigurationError(
                    f"flow {fid!r}: route endpoints {path[0]!r}->{path[-1]!r} "
                    f"do not match flow {flow.src!r}->{flow.dst!r}"
                )
            links = route_dlinks(path)
            if links is None:
                u, v = next(hop for hop in zip(path, path[1:]) if hop not in index.dlink_id)
                raise ConfigurationError(f"flow {fid!r}: route uses missing link ({u!r}, {v!r})")
            flow_ids.append(fid)
            demands.append(flow.demand_bps)
            routes.append(links)
        indptr = np.zeros(len(routes) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, routes), np.intp, len(routes)), out=indptr[1:])
        return cls(
            index=index,
            flow_ids=tuple(flow_ids),
            row_of=dict(zip(flow_ids, range(len(flow_ids)))),
            indptr=indptr,
            dlinks=np.fromiter(chain.from_iterable(routes), np.intp, int(indptr[-1])),
            demands=np.asarray(demands, dtype=float),
        )

    @property
    def n_flows(self) -> int:
        return len(self.flow_ids)

    def hops_of(self, flow_id: str) -> np.ndarray:
        """Directed link ids of one flow's path, in hop order."""
        row = self.row_of[flow_id]
        return self.dlinks[self.indptr[row] : self.indptr[row + 1]]

    def utilization_vector(self) -> np.ndarray:
        """Per-directed-link utilization from the flows' actual demands."""
        load = np.zeros(self.index.n_dlinks, dtype=float)
        hop_counts = np.diff(self.indptr)
        np.add.at(load, self.dlinks, np.repeat(self.demands, hop_counts))
        return load / self.index.dlink_capacity

    def concat_rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(concatenated link ids, owning-row index per hop) for ``rows``.

        ``rows`` is an iterable of row indices; the owning-row index is
        the *position within ``rows``*, which is what grouped latency
        sampling scatters per-hop waits back onto.
        """
        rows = np.asarray(list(rows), dtype=np.intp)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # Gather each row's slice; fancy-index with a flat offset array.
        offsets = np.repeat(starts, counts) + _ranges(counts)
        return self.dlinks[offsets], np.repeat(np.arange(len(rows)), counts)


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each c in counts, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    out = np.ones(total, dtype=np.intp)
    out[0] = 0
    ends = np.cumsum(counts)[:-1]
    out[ends] = 1 - counts[:-1]
    return np.cumsum(out)
