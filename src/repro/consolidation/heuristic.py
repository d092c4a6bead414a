"""Greedy bin-packing consolidation heuristic.

The paper notes the exact LP takes 42+ minutes for 3000 flows on a
4-ary fat-tree and deploys "the heuristic algorithm (similar to the
greedy bin-packing algorithm in [2])" — ElasticTree's first-fit
packing.  This implementation:

1. sorts flows by reserved bandwidth (``K * demand`` for
   latency-sensitive flows) in decreasing order — first-fit-decreasing;
2. for each flow, enumerates its shortest paths in deterministic
   "leftmost" order and keeps those with enough residual capacity on
   every directed hop (after the safety margin);
3. among feasible paths, picks the one that powers on the least
   additional switch/link wattage, tie-broken by largest bottleneck
   residual then leftmost — which is what drains traffic off the
   right-hand side of the tree.

Candidate paths are priced by the :mod:`repro.netfast` fast path:
vectorized operations over precompiled link-id matrices, with residual
capacities and active-device membership kept as flat arrays.  This is
what makes datacenter-scale (k=16) consolidation tractable.  The
original string-keyed loops live on as the executable specification
in ``tests/oracles/network.py``; ``tests/test_netfast_equivalence.py``
asserts both produce byte-identical results.

The optional ``allowed_subnet`` restricts routing to an existing
:class:`~repro.topology.graph.ActiveSubnet` — used to route under the
fixed aggregation policies of Fig. 9/10/13 (see
:func:`route_on_subnet`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, InfeasibleError
from ..flows.traffic import TrafficSet
from ..netfast import PackingState, topology_index
from ..netsim.network import Routing
from ..topology.graph import ActiveSubnet, Link, Topology
from .base import (
    ConsolidationResult,
    Consolidator,
    validate_exclusions,
)

__all__ = ["GreedyConsolidator", "route_on_subnet"]


class _StrandedFlow(Exception):
    """Internal: a packing attempt could not place ``flow_id``."""

    def __init__(self, flow_id: str, error: InfeasibleError):
        super().__init__(str(error))
        self.flow_id = flow_id
        self.error = error


def _stranded(flow, scale_factor: float) -> _StrandedFlow:
    return _StrandedFlow(
        flow.flow_id,
        InfeasibleError(
            f"flow {flow.flow_id!r} ({flow.reserved_bps(scale_factor):.3e} bit/s "
            f"reserved at K={scale_factor}) fits on no path"
        ),
    )


#: Default bound on the per-consolidator pair cache.  Sized to hold
#: every pair of the k=32 benchmark workload (~25k) with headroom;
#: beyond it the cache evicts least-recently-used entries instead of
#: growing without bound across long sweeps.
PAIR_CACHE_MAX = 65536


class GreedyConsolidator(Consolidator):
    """First-fit-decreasing, leftmost-path greedy consolidator."""

    def __init__(
        self,
        topology: Topology,
        safety_margin_bps: float = 50e6,
        switch_model=None,
        link_model=None,
        allowed_subnet: ActiveSubnet | None = None,
        pair_cache_max: int = PAIR_CACHE_MAX,
    ):
        super().__init__(topology, safety_margin_bps, switch_model, link_model)
        if allowed_subnet is not None and allowed_subnet.topology is not topology:
            raise ConfigurationError("allowed_subnet belongs to a different topology")
        if pair_cache_max < 1:
            raise ConfigurationError(f"pair_cache_max must be >= 1, got {pair_cache_max}")
        self.allowed_subnet = allowed_subnet
        # (PathSet, allowed-mask) per pair is pure topology + fixed
        # subnet; cache across consolidate() calls (the controller
        # re-runs every 10 simulated minutes).  Bounded LRU — long
        # multi-workload sweeps must not grow it forever.  The reusable
        # array state is built lazily on first consolidate().
        self.pair_cache_max = pair_cache_max
        self._pair_cache: dict[tuple[str, str], tuple] = {}
        self._state: PackingState | None = None
        # Optional per-flow placement log hook (set by the delta
        # engine): when not None, each packing attempt clears
        # it and records (flow, path_set, row, reservations_row) per
        # placed flow, so the final successful attempt's placements can
        # seed a warm-startable state.
        self._placement_log: dict[str, tuple] | None = None

    def _lru_touch(self, cache: dict, key):
        """Move ``key`` to the cache's most-recent end (dict order)."""
        cache[key] = cache.pop(key)

    def _lru_insert(self, cache: dict, key, value):
        while len(cache) >= self.pair_cache_max:
            del cache[next(iter(cache))]
        cache[key] = value

    def consolidate(
        self,
        traffic: TrafficSet,
        scale_factor: float = 1.0,
        best_effort_scale: bool = False,
        max_restarts: int = 8,
        excluded_switches: frozenset[str] = frozenset(),
        excluded_links: frozenset[Link] = frozenset(),
    ) -> ConsolidationResult:
        """Pack ``traffic`` at scale factor ``K``.

        Packing is first-fit-decreasing; when a packing attempt strands
        a flow, up to ``max_restarts`` further attempts combine two
        remedies for greedy bin-packing dead ends:

        * **conflict-driven priority** — every flow that has been
          stranded so far is promoted to the front of the packing
          order, so the hard-to-place flows claim their links first;
        * **randomized tie order** — the remaining flows are shuffled
          within equal-reservation groups (deterministic seeded
          shuffles).

        With ``best_effort_scale``, a still-infeasible instance is then
        retried with the scale factor globally reduced one step at a
        time (down to 1) — the controller spreads flows as much as
        capacity allows rather than rejecting the epoch; the result
        reports the *achieved* scale factor.

        ``excluded_switches`` / ``excluded_links`` is the failure-repair
        entry point: the named devices are treated as failed — no path
        may touch them, whatever the allowed subnet says — so the
        controller can re-consolidate around an outage on the surviving
        topology.
        """
        excluded = validate_exclusions(self.topology, excluded_switches, excluded_links)
        last_error: InfeasibleError | None = None
        priority: list[str] = []
        for attempt in range(max(1, max_restarts + 1)):
            try:
                return self._pack_once(
                    traffic, scale_factor, attempt, tuple(priority), excluded
                )
            except _StrandedFlow as err:
                last_error = err.error
                if err.flow_id not in priority:
                    priority.append(err.flow_id)
        if best_effort_scale and scale_factor > 1.0:
            return self.consolidate(
                traffic,
                max(1.0, scale_factor - 1.0),
                best_effort_scale=True,
                max_restarts=max_restarts,
                excluded_switches=excluded_switches,
                excluded_links=excluded_links,
            )
        assert last_error is not None
        raise last_error

    # -- shared packing-order logic -------------------------------------------

    @staticmethod
    def _ordered_flows(traffic: TrafficSet, scale_factor: float, attempt: int, priority):
        rank = {fid: i for i, fid in enumerate(priority)}
        if attempt == 0:
            return sorted(
                traffic,
                key=lambda f: (
                    rank.get(f.flow_id, len(rank)),
                    -f.reserved_bps(scale_factor),
                    f.flow_id,
                ),
            )
        # Restart: previously stranded flows go first; the rest are
        # shuffled within equal-reservation groups so tie order
        # varies deterministically with the attempt number.
        rng = np.random.default_rng(attempt)
        return sorted(
            traffic,
            key=lambda f: (
                rank.get(f.flow_id, len(rank)),
                -f.reserved_bps(scale_factor),
                float(rng.random()),
                f.flow_id,
            ),
        )

    def _activation_deltas(self) -> tuple[float, float]:
        """Hoisted per-device activation-power deltas (loop-invariant)."""
        sw_delta = self.switch_model.power(True) - self.switch_model.power(False)
        ln_delta = self.link_model.power(True) - self.link_model.power(False)
        return sw_delta, ln_delta

    _NO_EXCLUSIONS = (frozenset(), frozenset())

    def _pair(self, src: str, dst: str):
        """(PathSet, allowed-mask) for one pair, cached per consolidator."""
        key = (src, dst)
        entry = self._pair_cache.get(key)
        if entry is None:
            ps = topology_index(self.topology).path_set(src, dst)
            entry = (ps, self._state.allowed_mask(ps))
            self._lru_insert(self._pair_cache, key, entry)
        else:
            self._lru_touch(self._pair_cache, key)
        return entry

    def _exclusion_masker(self, excluded: tuple[frozenset, frozenset]):
        """A per-pair path mask dropping paths that touch failed devices.

        Returns ``None`` when nothing is excluded.  Masks are rebuilt
        per consolidate() call — unlike the allowed-subnet mask, the
        failed set changes between epochs, so it must not land in the
        long-lived pair cache.
        """
        excl_switches, excl_links = excluded
        if not excl_switches and not excl_links:
            return None
        index = topology_index(self.topology)
        node_excl = np.zeros(index.n_nodes, dtype=bool)
        for sw in excl_switches:
            node_excl[index.node_id[sw]] = True
        ulink_excl = np.zeros(index.n_ulinks, dtype=bool)
        for link in excl_links:
            ulink_excl[index.ulink_id[link]] = True
        cache: dict[tuple[str, str], np.ndarray] = {}

        def mask_for(key, ps):
            mask = cache.get(key)
            if mask is None:
                mask = ~ulink_excl[ps.ulinks].any(axis=1)
                if ps.switch_nodes.shape[1]:
                    mask &= ~node_excl[ps.switch_nodes].any(axis=1)
                cache[key] = mask
            return mask

        return mask_for

    def _pack_once(
        self,
        traffic: TrafficSet,
        scale_factor: float,
        attempt: int,
        priority: tuple[str, ...] = (),
        excluded: tuple[frozenset, frozenset] = _NO_EXCLUSIONS,
    ) -> ConsolidationResult:
        if self._state is None:
            self._state = PackingState(
                topology_index(self.topology), self.safety_margin_bps, self.allowed_subnet
            )
        else:
            self._state.reset()
        state = self._state
        sw_delta, ln_delta = self._activation_deltas()
        masker = self._exclusion_masker(excluded)
        log = self._placement_log
        if log is not None:
            log.clear()

        paths: dict[str, tuple[str, ...]] = {}
        for flow in self._ordered_flows(traffic, scale_factor, attempt, priority):
            ps, allowed = self._pair(flow.src, flow.dst)
            if ps.n_paths == 0:
                raise _stranded(flow, scale_factor)
            if masker is not None:
                surviving = masker((flow.src, flow.dst), ps)
                allowed = surviving if allowed is None else (allowed & surviving)
            reservations = np.where(
                ps.host_hop, flow.demand_bps, flow.reserved_bps(scale_factor)
            )
            picked = state.evaluate(ps, reservations, sw_delta, ln_delta, allowed)
            if picked is None:
                raise _stranded(flow, scale_factor)
            row, slack_row = picked
            paths[flow.flow_id] = ps.node_path(row)
            state.place(ps, row, slack_row)
            if log is not None:
                log[flow.flow_id] = (flow, ps, row, reservations[row].copy())

        subnet = ActiveSubnet(
            self.topology, state.active_switch_names(), state.active_link_names()
        )
        return ConsolidationResult(
            routing=Routing(paths),
            subnet=subnet,
            scale_factor=scale_factor,
            objective_watts=self._network_power(subnet),
            solver="heuristic",
        )


def route_on_subnet(
    subnet: ActiveSubnet,
    traffic: TrafficSet,
    scale_factor: float = 1.0,
    safety_margin_bps: float = 50e6,
) -> ConsolidationResult:
    """Route traffic over a *fixed* subnet (e.g. an aggregation policy).

    The subnet is not shrunk: the result reports the given subnet and
    its power, with flows packed greedily onto its active paths.
    Raises :class:`~repro.errors.InfeasibleError` when the subnet
    cannot carry the scaled reservations — this is exactly the
    "aggregation 3 cannot support this constraint" effect of Fig. 13.
    """
    consolidator = GreedyConsolidator(
        subnet.topology,
        safety_margin_bps=safety_margin_bps,
        allowed_subnet=subnet,
    )
    packed = consolidator.consolidate(traffic, scale_factor)
    # Report the full fixed subnet (its power is what the policy costs),
    # not just the links the flows happened to touch.
    sw, ln = subnet.network_power(consolidator.switch_model, consolidator.link_model)
    return ConsolidationResult(
        routing=packed.routing,
        subnet=subnet,
        scale_factor=scale_factor,
        objective_watts=sw + ln,
        solver="heuristic",
    )
