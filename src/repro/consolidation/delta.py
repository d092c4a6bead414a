"""Delta consolidation: churn-proportional control-plane epochs.

Every controller epoch today re-packs *all* flows from scratch, so the
epoch decision cost scales with the flow count even when almost nothing
changed — and at k=16/k=32 fat-tree scale the full greedy solve is the
dominant control-plane cost.  But epoch-to-epoch traffic is mostly
stable: the churn model kills a small fraction of background flows per
epoch and re-predicts a few demands, while query traffic persists.

:class:`DeltaConsolidator` exploits that stability.  It wraps a
:class:`~repro.consolidation.heuristic.GreedyConsolidator` and
warm-starts each epoch from the previous epoch's packed
:class:`~repro.netfast.packing.PackingState`:

1. classify the offered flows against the warm records into
   *unchanged* / *arrived* / *departed* / *re-predicted*;
2. remove the departed and re-predicted placements with O(hops)
   refcounted residual add-backs;
3. re-place only the churned set (arrived + re-predicted), first-fit
   decreasing, through the same vectorized ``evaluate``/``place``
   pricing the full solve uses;
4. fall back to a full solve whenever the warm start is unsafe or has
   drifted too far from a fresh packing.

The epoch cost is therefore proportional to *churn*, not to the number
of flows.  The price is optimality drift: incremental placements never
revisit the surviving flows, so the active subnet can accumulate regret
relative to a cold full solve.  The drift bound caps that explicitly —
see :meth:`DeltaConsolidator.consolidate` — and ``drift_bound=0`` turns
the engine into a bit-identical pass-through to the full solver, which
is what the golden-equivalence harness pins.

Fallback reasons (``DeltaStats.fallback_reason``):

``cold_start``
    No warm state yet (first epoch, or after :meth:`~DeltaConsolidator.invalidate`).
``zero_drift_bound``
    ``drift_bound == 0``: zero tolerance, every epoch is a full solve.
``invalidated``
    External state change voided the warm start (guardrail rollback,
    uncommitted candidate, fault repair, MILP fallback).
``exclusions_changed`` / ``scale_changed``
    The failed-device set or requested scale factor differs from what
    the warm state was packed under.
``churn_bound``
    Churned fraction exceeded ``max_churn_fraction`` — a delta repack
    would touch so many flows a full solve is cheaper *and* tighter.
``drift_bound``
    Accumulated placement regret exceeded ``drift_bound``.
``stranded``
    Incremental placement found no feasible path for a churned flow;
    the full solve's restart/priority machinery takes over.
``refresh_interval``
    ``full_refresh_epochs`` consecutive delta epochs elapsed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InfeasibleError
from ..flows.traffic import TrafficSet
from ..netsim.network import Routing
from ..topology.graph import ActiveSubnet, Link, Topology
from .base import ConsolidationResult, Consolidator, validate_exclusions
from .heuristic import GreedyConsolidator

__all__ = ["DeltaConsolidator", "DeltaStats"]

#: Epoch solved incrementally from the warm state.
MODE_DELTA = "delta"
#: Epoch solved by the wrapped full consolidator.
MODE_FULL = "full"

FALLBACK_COLD_START = "cold_start"
FALLBACK_ZERO_BOUND = "zero_drift_bound"
FALLBACK_INVALIDATED = "invalidated"
FALLBACK_EXCLUSIONS = "exclusions_changed"
FALLBACK_SCALE = "scale_changed"
FALLBACK_CHURN = "churn_bound"
FALLBACK_DRIFT = "drift_bound"
FALLBACK_STRANDED = "stranded"
FALLBACK_REFRESH = "refresh_interval"


@dataclass(frozen=True)
class DeltaStats:
    """Per-epoch delta-engine telemetry.

    ``mode`` is :data:`MODE_DELTA` when the epoch was solved
    incrementally, :data:`MODE_FULL` when it fell back (see
    ``fallback_reason``; ``None`` on delta epochs).  The churn counts
    are populated whenever a warm state existed to classify against.
    """

    epoch: int
    mode: str
    fallback_reason: str | None
    n_flows: int
    n_unchanged: int
    n_arrived: int
    n_departed: int
    n_repredicted: int
    solve_time_s: float
    objective_watts: float
    #: Accumulated regret fraction after this epoch (0 right after a
    #: full solve).
    regret_fraction: float

    @property
    def n_churned(self) -> int:
        return self.n_arrived + self.n_departed + self.n_repredicted


class _Record:
    """One placed flow's warm-start record (enough to remove/re-place it)."""

    __slots__ = ("src", "dst", "flow_class", "demand_bps", "ps", "row", "reservations")

    def __init__(self, flow, ps, row, reservations):
        self.src = flow.src
        self.dst = flow.dst
        self.flow_class = flow.flow_class
        self.demand_bps = flow.demand_bps
        self.ps = ps
        self.row = row
        self.reservations = reservations


class _WarmState:
    """Everything a delta epoch needs beyond the inner ``PackingState``."""

    __slots__ = (
        "records",
        "paths",
        "scale_factor",
        "excluded",
        "full_objective_watts",
        "epochs_since_full",
    )

    def __init__(self, records, paths, scale_factor, excluded, full_objective_watts):
        self.records: dict[str, _Record] = records
        self.paths: dict[str, tuple[str, ...]] = paths
        self.scale_factor = scale_factor
        self.excluded = excluded
        self.full_objective_watts = full_objective_watts
        self.epochs_since_full = 0


class DeltaConsolidator(Consolidator):
    """Warm-started incremental consolidation over a greedy inner solver.

    Parameters
    ----------
    topology_or_inner:
        Either a :class:`~repro.topology.graph.Topology` (a
        :class:`GreedyConsolidator` is built internally) or an existing
        greedy consolidator to wrap.  The wrapped consolidator becomes
        *owned*: calling its ``consolidate`` directly between delta
        epochs corrupts the warm state.
    drift_bound:
        Maximum accumulated regret fraction before a full-solve refresh.
        Regret is accounted against the last full solve's objective — a
        cheap lower-bound proxy for the true optimum (the full greedy
        solve is itself what the delta path approximates, and it never
        benefits from churn the way the incremental path can suffer
        from it).  ``0.0`` means zero tolerance: every epoch full-solves
        and the engine is bit-identical to the wrapped consolidator.
    max_churn_fraction:
        Classified-churn fraction above which delta solving is skipped
        (a full solve touches every flow anyway and packs tighter).
    full_refresh_epochs:
        Optional hard cap on consecutive delta epochs.
    """

    def __init__(
        self,
        topology_or_inner,
        drift_bound: float = 0.25,
        max_churn_fraction: float = 0.5,
        full_refresh_epochs: int | None = None,
        safety_margin_bps: float = 50e6,
        switch_model=None,
        link_model=None,
    ):
        if isinstance(topology_or_inner, GreedyConsolidator):
            inner = topology_or_inner
        elif isinstance(topology_or_inner, Topology):
            inner = GreedyConsolidator(
                topology_or_inner,
                safety_margin_bps=safety_margin_bps,
                switch_model=switch_model,
                link_model=link_model,
            )
        else:
            raise ConfigurationError(
                "DeltaConsolidator wraps a Topology or a GreedyConsolidator, "
                f"got {type(topology_or_inner).__name__}"
            )
        super().__init__(
            inner.topology,
            inner.safety_margin_bps,
            inner.switch_model,
            inner.link_model,
        )
        if drift_bound < 0.0:
            raise ConfigurationError(f"drift_bound must be >= 0, got {drift_bound}")
        if not 0.0 < max_churn_fraction <= 1.0:
            raise ConfigurationError(
                f"max_churn_fraction must be in (0, 1], got {max_churn_fraction}"
            )
        if full_refresh_epochs is not None and full_refresh_epochs < 1:
            raise ConfigurationError(
                f"full_refresh_epochs must be >= 1, got {full_refresh_epochs}"
            )
        self.inner = inner
        self.drift_bound = drift_bound
        self.max_churn_fraction = max_churn_fraction
        self.full_refresh_epochs = full_refresh_epochs
        self._warm: _WarmState | None = None
        self._pending_reason: str | None = None
        self.last_invalidation_cause: str | None = None
        self._regret = 0.0
        self._epoch = 0
        self.last_stats: DeltaStats | None = None
        self._counters = {
            "epochs": 0,
            "delta_epochs": 0,
            "full_epochs": 0,
            "repacked_flows": 0,
            "invalidations": 0,
        }
        self._fallback_counts: dict[str, int] = {}

    # -- public state management ------------------------------------------------

    @property
    def has_warm_state(self) -> bool:
        return self._warm is not None

    @property
    def warm_flow_count(self) -> int:
        return 0 if self._warm is None else len(self._warm.records)

    def invalidate(self, cause: str = "external") -> None:
        """Void the warm state; the next epoch full-solves.

        The controller calls this whenever the network's routing state
        diverges from what the delta engine last committed: guardrail
        rollback to a previous configuration, a guardrail-rejected/held
        candidate that was computed but never installed, fault repair
        rewriting routes outside the consolidator, or an MILP fallback
        producing the epoch's result.
        """
        if self._warm is not None or self._pending_reason is None:
            self._counters["invalidations"] += 1
        self._warm = None
        self._pending_reason = FALLBACK_INVALIDATED
        self.last_invalidation_cause = cause

    def counters(self) -> dict:
        """Cumulative telemetry counters (merged by the controller)."""
        out = dict(self._counters)
        out["fallbacks"] = dict(self._fallback_counts)
        return out

    # -- main entry point --------------------------------------------------------

    def consolidate(
        self,
        traffic: TrafficSet,
        scale_factor: float = 1.0,
        best_effort_scale: bool = False,
        max_restarts: int = 8,
        excluded_switches: frozenset[str] = frozenset(),
        excluded_links: frozenset[Link] = frozenset(),
    ) -> ConsolidationResult:
        """Solve one epoch, incrementally when the warm start is safe.

        The decision ladder, in order: zero drift bound → pending
        invalidation → cold start → exclusion/scale mismatch → refresh
        interval → accumulated drift → churn bound → delta solve (which
        itself falls back if a churned flow strands).  The module
        docstring lists the reason strings.
        """
        t0 = time.perf_counter()
        excluded = validate_exclusions(self.topology, excluded_switches, excluded_links)
        self._epoch += 1
        epoch = self._epoch

        reason: str | None = None
        classified = None
        if self.drift_bound == 0.0:
            reason = FALLBACK_ZERO_BOUND
        elif self._pending_reason is not None:
            reason = self._pending_reason
        elif self._warm is None:
            reason = FALLBACK_COLD_START
        elif excluded != self._warm.excluded:
            reason = FALLBACK_EXCLUSIONS
        elif scale_factor != self._warm.scale_factor:
            reason = FALLBACK_SCALE
        elif (
            self.full_refresh_epochs is not None
            and self._warm.epochs_since_full >= self.full_refresh_epochs
        ):
            reason = FALLBACK_REFRESH
        elif self._regret > self.drift_bound:
            reason = FALLBACK_DRIFT

        result = None
        if reason is None:
            classified = self._classify(traffic)
            (
                to_place,
                remove_set,
                n_arrived,
                n_departed,
                n_repredicted,
                n_unchanged,
            ) = classified
            churn = (n_arrived + n_departed + n_repredicted) / max(1, len(traffic))
            if churn > self.max_churn_fraction:
                reason = FALLBACK_CHURN
            else:
                result = self._delta_solve(scale_factor, excluded, to_place, remove_set)
                if result is None:
                    reason = FALLBACK_STRANDED

        if result is None:
            result = self._full_solve(
                traffic, scale_factor, best_effort_scale, max_restarts, excluded
            )
            mode = MODE_FULL
            self._pending_reason = None
            self._fallback_counts[reason] = self._fallback_counts.get(reason, 0) + 1
            self._counters["full_epochs"] += 1
        else:
            mode = MODE_DELTA
            warm = self._warm
            base = max(warm.full_objective_watts, 1e-12)
            self._regret += max(0.0, result.objective_watts - warm.full_objective_watts) / base
            warm.epochs_since_full += 1
            self._counters["delta_epochs"] += 1
            self._counters["repacked_flows"] += len(classified[0])

        self._counters["epochs"] += 1
        if classified is not None:
            _, _, n_arrived, n_departed, n_repredicted, n_unchanged = classified
        else:
            n_arrived = len(traffic) if reason == FALLBACK_COLD_START else 0
            n_departed = n_repredicted = n_unchanged = 0
        self.last_stats = DeltaStats(
            epoch=epoch,
            mode=mode,
            fallback_reason=reason if mode == MODE_FULL else None,
            n_flows=len(traffic),
            n_unchanged=n_unchanged,
            n_arrived=n_arrived,
            n_departed=n_departed,
            n_repredicted=n_repredicted,
            solve_time_s=time.perf_counter() - t0,
            objective_watts=result.objective_watts,
            regret_fraction=self._regret,
        )
        return result

    # -- classification ----------------------------------------------------------

    def _classify(self, traffic: TrafficSet):
        """Split offered flows against the warm records.

        A flow id whose endpoints or class changed counts as a
        departure *and* an arrival (the same-epoch depart-and-re-arrive
        case); a demand-only change is a re-prediction.  Both are
        removed and re-placed — the distinction is telemetry.
        """
        records = self._warm.records
        to_place = []
        remove_set: set[str] = set()
        n_arrived = n_departed = n_repredicted = n_unchanged = 0
        seen: set[str] = set()
        for flow in traffic:
            seen.add(flow.flow_id)
            rec = records.get(flow.flow_id)
            if rec is None:
                to_place.append(flow)
                n_arrived += 1
            elif (
                rec.src != flow.src
                or rec.dst != flow.dst
                or rec.flow_class != flow.flow_class
            ):
                remove_set.add(flow.flow_id)
                to_place.append(flow)
                n_arrived += 1
                n_departed += 1
            elif rec.demand_bps != flow.demand_bps:
                remove_set.add(flow.flow_id)
                to_place.append(flow)
                n_repredicted += 1
            else:
                n_unchanged += 1
        for fid in records:
            if fid not in seen:
                remove_set.add(fid)
                n_departed += 1
        return (
            to_place,
            remove_set,
            n_arrived,
            n_departed,
            n_repredicted,
            n_unchanged,
        )

    # -- incremental solve -------------------------------------------------------

    def _delta_solve(self, scale_factor, excluded, to_place, remove_set):
        """Remove + re-place the churned set; None if a flow strands.

        On a strand the warm state is left partially mutated — the
        caller immediately full-solves, which resets the packing state
        and rebuilds the warm records from scratch, so no rollback is
        needed.
        """
        inner = self.inner
        warm = self._warm
        state = inner._state

        # Removals in record (insertion) order, for determinism.
        if remove_set:
            for fid in [f for f in warm.records if f in remove_set]:
                rec = warm.records.pop(fid)
                del warm.paths[fid]
                state.remove_placement(rec.ps, rec.row, rec.reservations)

        sw_delta, ln_delta = inner._activation_deltas()
        masker = inner._exclusion_masker(excluded)
        # First-fit decreasing over the churned set only — the same
        # order a full solve would consider these flows in, restricted
        # to them.
        order = sorted(to_place, key=lambda f: (-f.reserved_bps(scale_factor), f.flow_id))
        for flow in order:
            ps, allowed = inner._pair(flow.src, flow.dst)
            if ps.n_paths == 0:
                return None
            if masker is not None:
                surviving = masker((flow.src, flow.dst), ps)
                allowed = surviving if allowed is None else (allowed & surviving)
            reservations = np.where(
                ps.host_hop, flow.demand_bps, flow.reserved_bps(scale_factor)
            )
            picked = state.evaluate(ps, reservations, sw_delta, ln_delta, allowed)
            if picked is None:
                return None
            row, slack_row = picked
            state.place_tracked(ps, row, slack_row)
            warm.records[flow.flow_id] = _Record(flow, ps, row, reservations[row].copy())
            warm.paths[flow.flow_id] = ps.node_path(row)

        subnet = ActiveSubnet(
            self.topology, state.active_switch_names(), state.active_link_names()
        )
        return ConsolidationResult(
            routing=Routing(dict(warm.paths)),
            subnet=subnet,
            scale_factor=scale_factor,
            objective_watts=self._network_power(subnet),
            solver="heuristic-delta",
        )

    # -- full solve + warm-state capture ----------------------------------------

    def _full_solve(self, traffic, scale_factor, best_effort_scale, max_restarts, excluded):
        inner = self.inner
        log: dict[str, tuple] = {}
        inner._placement_log = log
        try:
            result = inner.consolidate(
                traffic,
                scale_factor,
                best_effort_scale=best_effort_scale,
                max_restarts=max_restarts,
                excluded_switches=excluded[0],
                excluded_links=excluded[1],
            )
        except InfeasibleError:
            self._warm = None
            self._pending_reason = FALLBACK_COLD_START
            raise
        finally:
            inner._placement_log = None

        state = inner._state
        state.clear_refcounts()
        records: dict[str, _Record] = {}
        paths: dict[str, tuple[str, ...]] = {}
        for fid, (flow, ps, row, reservations_row) in log.items():
            state.count_placement(ps, row)
            records[fid] = _Record(flow, ps, row, reservations_row)
            paths[fid] = ps.node_path(row)
        self._warm = _WarmState(
            records=records,
            paths=paths,
            scale_factor=result.scale_factor,
            excluded=excluded,
            full_objective_watts=result.objective_watts,
        )
        self._regret = 0.0
        return result
