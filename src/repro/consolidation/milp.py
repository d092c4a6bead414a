"""Exact MILP consolidation — the paper's optimization model (Eq. 2–9).

Decision variables
------------------
* ``X_l``  ∈ {0,1} — undirected link *l* powered on (Eq. 2 term 1);
* ``Y_s``  ∈ {0,1} — switch *s* powered on (Eq. 2 term 2);
* ``Z_ie`` ∈ {0,1} — flow *i* routed over directed edge *e* (Eq. 9's
  unsplittable-flow variable; the continuous ``f_i(u,v)`` of Eq. 4–6
  is eliminated by substituting ``f = K·d_i·Z``).

Constraints
-----------
* per-flow conservation at every node (Eq. 5–6, divided by ``K·d_i``);
* directed-edge capacity ``Σ_i K_i·d_i·Z_ie ≤ (c − margin)·X_l``
  (Eq. 4 plus the safety margin of Section II);
* link–switch coupling ``X_l ≤ Y_s`` for each switch endpoint (Eq. 7);
* ``Y_s ≤ Σ_{l∋s} X_l`` (Eq. 8);
* host attachment links are fixed on — servers stay reachable.

The objective is ``Σ l(u,v)·X + Σ s(u)·Y`` (network power; the paper's
constant ``N·P_server`` term is added by the joint optimizer) plus a
tiny ``ε·Σ Z`` term that shaves off gratuitous cycles the solver could
otherwise include for free.

The paper solved this with CPLEX; we use HiGHS via
:func:`scipy.optimize.milp`.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np


@contextlib.contextmanager
def _silence_stdout():
    """Suppress HiGHS's C-level debug chatter during a solve.

    Some HiGHS builds printf progress lines directly to fd 1, bypassing
    ``sys.stdout``; redirect the file descriptor for the duration.
    """
    try:
        stdout_fd = os.dup(1)
    except OSError:
        yield
        return
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
        yield
    finally:
        os.dup2(stdout_fd, 1)
        os.close(stdout_fd)

from ..errors import InfeasibleError, SolverError
from ..flows.prediction import usable_capacity
from ..flows.traffic import TrafficSet
from ..netsim.network import Routing
from ..topology.graph import ActiveSubnet, canonical_link
from .base import (
    ConsolidationResult,
    Consolidator,
    link_reservation,
    validate_exclusions,
)

__all__ = ["MilpConsolidator"]

#: Cost per Z variable to suppress zero-cost cycles in the solution.
_CYCLE_EPS = 1e-6


class MilpConsolidator(Consolidator):
    """Exact consolidation via :func:`scipy.optimize.milp` (HiGHS).

    Parameters beyond the :class:`~repro.consolidation.base.Consolidator`
    base: ``time_limit_s`` bounds solver runtime (``None`` = unlimited);
    hitting the limit with no incumbent raises
    :class:`~repro.errors.SolverError`.
    """

    def __init__(
        self,
        topology,
        safety_margin_bps: float = 50e6,
        switch_model=None,
        link_model=None,
        time_limit_s: float | None = None,
    ):
        super().__init__(topology, safety_margin_bps, switch_model, link_model)
        if time_limit_s is not None and time_limit_s <= 0:
            raise SolverError("time limit must be positive")
        self.time_limit_s = time_limit_s

    def consolidate(
        self,
        traffic: TrafficSet,
        scale_factor: float = 1.0,
        excluded_switches: frozenset[str] = frozenset(),
        excluded_links: frozenset = frozenset(),
    ) -> ConsolidationResult:
        """Solve the exact model; ``excluded_*`` is the repair entry
        point — failed devices have their X/Y indicators fixed to 0, so
        the optimum is computed over the surviving topology."""
        excluded_switches, excluded_links = validate_exclusions(
            self.topology, excluded_switches, excluded_links
        )
        topo = self.topology
        flows = list(traffic)
        links = list(topo.links)
        switches = list(topo.switches)
        nodes = list(topo.hosts) + switches

        link_index = {l: i for i, l in enumerate(links)}
        switch_index = {s: i for i, s in enumerate(switches)}
        node_index = {n: i for i, n in enumerate(nodes)}

        # Directed edges: both orientations of every undirected link.
        directed: list[tuple[str, str]] = []
        for u, v in links:
            directed.append((u, v))
            directed.append((v, u))
        edge_index = {e: i for i, e in enumerate(directed)}

        n_links, n_switches, n_edges, n_flows = (
            len(links),
            len(switches),
            len(directed),
            len(flows),
        )
        n_x, n_y = n_links, n_switches
        n_z = n_flows * n_edges
        n_vars = n_x + n_y + n_z

        def z_var(flow_i: int, edge_i: int) -> int:
            return n_x + n_y + flow_i * n_edges + edge_i

        # -- objective --------------------------------------------------------
        c = np.full(n_vars, _CYCLE_EPS)
        link_watts = self.link_model.power(True) - self.link_model.power(False)
        switch_watts = self.switch_model.power(True) - self.switch_model.power(False)
        c[:n_x] = link_watts
        c[n_x : n_x + n_y] = switch_watts

        # -- bounds ------------------------------------------------------------
        lb = np.zeros(n_vars)
        ub = np.ones(n_vars)
        # Host attachment links (and hence their edge switches, via the
        # coupling constraint) are forced on.
        for host in topo.hosts:
            lb[link_index[canonical_link(host, topo.attachment_switch(host))]] = 1.0
        # Failed devices: indicators fixed off (coupling X <= Y then
        # forces every link incident to a failed switch off too).
        for link in excluded_links:
            ub[link_index[link]] = 0.0
        for sw in excluded_switches:
            ub[n_x + switch_index[sw]] = 0.0

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        lo: list[float] = []
        hi: list[float] = []
        row = 0

        def add_entry(r: int, col: int, val: float) -> None:
            rows.append(r)
            cols.append(col)
            vals.append(val)

        # -- flow conservation (equality rows) -----------------------------------
        out_edges: dict[str, list[int]] = {n: [] for n in nodes}
        in_edges: dict[str, list[int]] = {n: [] for n in nodes}
        for ei, (u, v) in enumerate(directed):
            out_edges[u].append(ei)
            in_edges[v].append(ei)
        for fi, flow in enumerate(flows):
            for node in nodes:
                for ei in out_edges[node]:
                    add_entry(row, z_var(fi, ei), 1.0)
                for ei in in_edges[node]:
                    add_entry(row, z_var(fi, ei), -1.0)
                if node == flow.src:
                    b = 1.0
                elif node == flow.dst:
                    b = -1.0
                else:
                    b = 0.0
                lo.append(b)
                hi.append(b)
                row += 1

        # -- capacity per directed edge -------------------------------------------
        for ei, (u, v) in enumerate(directed):
            cap = usable_capacity(topo.capacity(u, v), self.safety_margin_bps)
            for fi, flow in enumerate(flows):
                add_entry(row, z_var(fi, ei), link_reservation(flow, scale_factor, topo, u, v))
            add_entry(row, link_index[canonical_link(u, v)], -cap)
            lo.append(-np.inf)
            hi.append(0.0)
            row += 1

        # -- link-switch coupling: X_l <= Y_s --------------------------------------
        for li, (u, v) in enumerate(links):
            for end in (u, v):
                if topo.is_switch(end):
                    add_entry(row, li, 1.0)
                    add_entry(row, n_x + switch_index[end], -1.0)
                    lo.append(-np.inf)
                    hi.append(0.0)
                    row += 1

        # -- switch needs an active link: Y_s <= sum X ------------------------------
        for si, sw in enumerate(switches):
            add_entry(row, n_x + si, 1.0)
            for link in topo.switch_links(sw):
                add_entry(row, link_index[link], -1.0)
            lo.append(-np.inf)
            hi.append(0.0)
            row += 1

        # HiGHS (and scipy.sparse with it) loads on the first solve:
        # the greedy and delta consolidators never need it.
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        a = sparse.csr_matrix((vals, (rows, cols)), shape=(row, n_vars))
        constraints = LinearConstraint(a, np.array(lo), np.array(hi))
        options = {}
        if self.time_limit_s is not None:
            options["time_limit"] = self.time_limit_s
        with _silence_stdout():
            res = milp(
                c=c,
                constraints=constraints,
                integrality=np.ones(n_vars),
                bounds=Bounds(lb, ub),
                options=options,
            )
        if res.status == 2:
            raise InfeasibleError(
                f"MILP infeasible at K={scale_factor} "
                f"({n_flows} flows on {topo.n_links} links)"
            )
        if res.x is None:
            raise SolverError(f"MILP failed: status={res.status} ({res.message})")

        x = res.x
        on_links = {links[i] for i in range(n_links) if x[i] > 0.5}
        on_switches = {switches[i] for i in range(n_switches) if x[n_x + i] > 0.5}

        paths: dict[str, tuple[str, ...]] = {}
        for fi, flow in enumerate(flows):
            hops: dict[str, str] = {}
            for ei, (u, v) in enumerate(directed):
                if x[z_var(fi, ei)] > 0.5:
                    hops[u] = v
            path = [flow.src]
            seen = {flow.src}
            while path[-1] != flow.dst:
                nxt = hops.get(path[-1])
                if nxt is None or nxt in seen:
                    raise SolverError(
                        f"could not reconstruct a simple path for flow {flow.flow_id!r}"
                    )
                path.append(nxt)
                seen.add(nxt)
            paths[flow.flow_id] = tuple(path)

        subnet = ActiveSubnet(topo, frozenset(on_switches), frozenset(on_links))
        return ConsolidationResult(
            routing=Routing(paths),
            subnet=subnet,
            scale_factor=scale_factor,
            objective_watts=self._network_power(subnet),
            solver="milp",
        )
