"""Incremental array state for the greedy packing heuristic.

One :class:`PackingState` holds what the oracle heuristic in
``tests/oracles/network.py`` keeps in string-keyed dicts/sets:
per-directed-link residual capacity, the active-switch and
active-undirected-link membership, all as flat NumPy arrays updated in
O(hops) per placed flow.  ``evaluate`` prices every
candidate path of a flow — bottleneck residual, activation cost — in
one vectorized pass over the pair's :class:`~repro.netfast.index.PathSet`
matrices, reproducing the oracle's tie-breaking contract exactly:
minimize activation watts, then maximize bottleneck residual, then take
the leftmost path index.
"""

from __future__ import annotations

import numpy as np

from ..flows.prediction import usable_capacity
from ..topology.graph import ActiveSubnet, canonical_link
from .index import PathSet, TopologyIndex

__all__ = ["PackingState"]


class PackingState:
    """Residual capacities + active-device membership, index-keyed.

    Parameters
    ----------
    index:
        The topology's :class:`TopologyIndex`.
    safety_margin_bps:
        Headroom subtracted from every directed link's capacity.
    allowed_subnet:
        Optional fixed subnet restriction; its devices start *active*
        (their power is sunk) exactly as in the oracle.
    """

    def __init__(
        self,
        index: TopologyIndex,
        safety_margin_bps: float,
        allowed_subnet: ActiveSubnet | None = None,
    ):
        self.index = index
        topo = index.topology
        usable = index.dlink_capacity - safety_margin_bps
        if np.any(usable <= 0.0):
            bad = int(np.argmax(usable <= 0.0))
            # Re-raise with the canonical usable_capacity() message.
            usable_capacity(float(index.dlink_capacity[bad]), safety_margin_bps)
        self._residual0 = usable
        switch_active = np.zeros(index.n_nodes, dtype=bool)
        ulink_active = np.zeros(index.n_ulinks, dtype=bool)
        for host in topo.hosts:
            sw = topo.attachment_switch(host)
            switch_active[index.node_id[sw]] = True
            ulink_active[index.ulink_id[canonical_link(host, sw)]] = True
        if allowed_subnet is not None:
            for sw in allowed_subnet.switches_on:
                switch_active[index.node_id[sw]] = True
            for link in allowed_subnet.links_on:
                ulink_active[index.ulink_id[link]] = True
        self._switch_active0 = switch_active
        self._ulink_active0 = ulink_active

        if allowed_subnet is None:
            self._node_allowed = None
            self._ulink_allowed = None
        else:
            node_allowed = np.ones(index.n_nodes, dtype=bool)
            node_allowed[index.is_switch_node] = False
            for sw in allowed_subnet.switches_on:
                node_allowed[index.node_id[sw]] = True
            ulink_allowed = np.zeros(index.n_ulinks, dtype=bool)
            for link in allowed_subnet.links_on:
                ulink_allowed[index.ulink_id[link]] = True
            self._node_allowed = node_allowed
            self._ulink_allowed = ulink_allowed

        self.reset()

    def reset(self) -> None:
        """Restore the pre-packing state (start of a packing attempt)."""
        self.residual = self._residual0.copy()
        self.switch_active = self._switch_active0.copy()
        self.ulink_active = self._ulink_active0.copy()
        #: Per-device placed-flow reference counts (delta engine only;
        #: allocated by :meth:`clear_refcounts`).  ``None`` on the plain
        #: full-solve path, which never removes individual flows.
        self.switch_refs: np.ndarray | None = None
        self.ulink_refs: np.ndarray | None = None

    # -- candidate pricing ------------------------------------------------------

    def allowed_mask(self, ps: PathSet) -> np.ndarray | None:
        """Per-path feasibility under the fixed allowed subnet (or None).

        Pure topology — cache the result per (src, dst) pair upstream.
        """
        if self._node_allowed is None:
            return None
        mask = self._ulink_allowed[ps.ulinks].all(axis=1)
        if ps.switch_nodes.shape[1]:
            mask &= self._node_allowed[ps.switch_nodes].all(axis=1)
        return mask

    def evaluate(
        self,
        ps: PathSet,
        reservations: np.ndarray,
        sw_delta: float,
        ln_delta: float,
        allowed: np.ndarray | None,
    ) -> tuple[int, np.ndarray] | None:
        """Pick the best path for one flow, or None if none fits.

        ``reservations`` is the per-hop reserved bandwidth matrix (shape
        of ``ps.dlinks``); ``sw_delta`` / ``ln_delta`` the hoisted
        activation-power deltas.  Returns ``(path_row, slack_row)``
        where ``slack_row`` is the already-computed new residual of the
        chosen path's hops.
        """
        slack = self.residual[ps.dlinks] - reservations
        bottleneck = slack.min(axis=1)
        feasible = bottleneck >= 0.0
        if allowed is not None:
            feasible &= allowed
        cand = np.flatnonzero(feasible)
        if cand.size == 0:
            return None
        if ps.switch_nodes.shape[1]:
            new_switches = np.count_nonzero(~self.switch_active[ps.switch_nodes], axis=1)
        else:
            new_switches = np.zeros(ps.n_paths, dtype=np.intp)
        new_links = np.count_nonzero(~self.ulink_active[ps.ulinks], axis=1)
        cost = new_switches * sw_delta + new_links * ln_delta
        cand_cost = cost[cand]
        cand = cand[cand_cost == cand_cost.min()]
        if cand.size > 1:
            cand_bn = bottleneck[cand]
            cand = cand[cand_bn == cand_bn.max()]
        best = int(cand[0])
        return best, slack[best]

    def place(self, ps: PathSet, row: int, slack_row: np.ndarray) -> None:
        """Commit one flow onto path ``row`` of its path set."""
        self.residual[ps.dlinks[row]] = slack_row
        if ps.switch_nodes.shape[1]:
            self.switch_active[ps.switch_nodes[row]] = True
        self.ulink_active[ps.ulinks[row]] = True

    # -- incremental removal (delta consolidation) -----------------------------

    def clear_refcounts(self) -> None:
        """Allocate (or zero) per-device placement reference counts.

        The delta engine needs to *remove* individual flows from a
        packed state: a switch/link stays active while any other placed
        flow still traverses it, so membership is a refcount on top of
        the baseline-active devices (host attachments / allowed
        subnet), not a plain boolean.
        """
        self.switch_refs = np.zeros(self.index.n_nodes, dtype=np.int64)
        self.ulink_refs = np.zeros(self.index.n_ulinks, dtype=np.int64)

    def count_placement(self, ps: PathSet, row: int) -> None:
        """Register one already-placed flow's devices in the refcounts.

        Used to rebuild refcounts from a full solve's placement log;
        paths are simple (no repeated node/link), so plain fancy-index
        increments are exact.
        """
        self.ulink_refs[ps.ulinks[row]] += 1
        if ps.switch_nodes.shape[1]:
            self.switch_refs[ps.switch_nodes[row]] += 1

    def place_tracked(self, ps: PathSet, row: int, slack_row: np.ndarray) -> None:
        """:meth:`place` plus refcount maintenance (delta placements)."""
        self.place(ps, row, slack_row)
        self.count_placement(ps, row)

    def remove_placement(
        self, ps: PathSet, row: int, reservations_row: np.ndarray
    ) -> None:
        """Undo one placed flow: residual add-back + refcounted deactivation.

        ``reservations_row`` must be the exact per-hop reservations the
        flow was placed with.  Devices whose refcount drops to zero
        fall back to the baseline-active state (host attachments and
        allowed-subnet devices never turn off).  O(hops), independent
        of the number of placed flows — the property the delta engine's
        churn-proportional epochs rest on.
        """
        self.residual[ps.dlinks[row]] += reservations_row
        ul = ps.ulinks[row]
        self.ulink_refs[ul] -= 1
        self.ulink_active[ul] = self._ulink_active0[ul] | (self.ulink_refs[ul] > 0)
        if ps.switch_nodes.shape[1]:
            sw = ps.switch_nodes[row]
            self.switch_refs[sw] -= 1
            self.switch_active[sw] = self._switch_active0[sw] | (self.switch_refs[sw] > 0)

    # -- result extraction ------------------------------------------------------

    def active_switch_names(self) -> frozenset[str]:
        active = self.switch_active & self.index.is_switch_node
        return frozenset(self.index.node_names[i] for i in np.flatnonzero(active))

    def active_link_names(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            self.index.ulink_names[i] for i in np.flatnonzero(self.ulink_active)
        )
