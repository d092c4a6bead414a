"""Degraded stats collection: what the controller *actually* observes.

Sits between the true offered traffic and the
:class:`~repro.control.monitor.TrafficMonitor`: each epoch the
controller polls every edge switch for flow counters, and the
:class:`DegradedStatsCollector` replays a :class:`TelemetryProfile`
against those polls — dropping whole stats replies, re-serving stale
counters, perturbing values with bounded noise, and deferring batches
one epoch.  Degradation is per *switch* (an OpenFlow stats reply
carries every flow the switch reports), so one lost reply blinds the
monitor to all flows attached there at once — the failure mode that
makes per-flow prediction dangerous.

A reply is one vector of rates over the switch's flows.  Each epoch the
flows are ranked once by id and grouped by (attachment switch, id), so
every switch is a contiguous block of rows.  An epoch is drawn first,
then assembled: each switch draws all its polls' outcomes (and noise
vectors) in stream order, and then the delivered samples, gaps and
late replies of every (flow, poll) pair come out of whole-epoch array
operations, leaving as one :class:`ObservedBatch` of flat arrays in the
monitor's ingest format.

Replay is seed-deterministic and independent of iteration order:
every (epoch, switch) pair draws from its own content-keyed generator,
and flows within a reply are processed in sorted id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..flows.traffic import TrafficSet
from ..topology.graph import Topology
from .profile import TelemetryProfile

__all__ = ["ObservedBatch", "DegradedStatsCollector"]

# Poll outcomes, in the order a poll's uniform draw is tested.
_LOST, _STALE, _DELAYED, _CLEAN = range(4)


@dataclass(frozen=True, eq=False)
class ObservedBatch:
    """One epoch's delivered telemetry, in the monitor's ingest format.

    ``sample_ids``: sorted ids of the flows with samples delivered this
    epoch (late batches included); ``rates``: their samples back to
    back, ``sample_counts[i]`` for ``sample_ids[i]``, oldest first.
    ``gap_ids``/``gap_counts``: per flow, sorted, the polls that produced
    nothing — the monitor's missing-sample accounting feeds on them.
    """

    epoch: int
    sample_ids: list[str]
    sample_counts: np.ndarray
    rates: np.ndarray
    gap_ids: list[str]
    gap_counts: np.ndarray
    n_polls: int = 0
    n_lost: int = 0
    n_stale: int = 0
    n_delayed: int = 0

    @property
    def n_delivered_samples(self) -> int:
        return int(self.rates.size)


class DegradedStatsCollector:
    """Replays a :class:`TelemetryProfile` over per-epoch stats polls.

    Parameters
    ----------
    topology:
        Used to resolve each flow's reporting switch (the edge switch
        its source host attaches to).
    profile:
        The degradation scenario.  :data:`~repro.telemetry.PERFECT_TELEMETRY`
        delivers every poll clean and byte-identically reproduces the
        pre-degradation observation stream.
    """

    def __init__(self, topology: Topology, profile: TelemetryProfile):
        self.topology = topology
        self.profile = profile
        att = topology.attachment_switch
        #: Reporting switches in name order, and each host's position
        #: in that order (the epoch's rows are grouped by it).
        self._switches = sorted({att(h) for h in topology.hosts})
        rank = {sw: i for i, sw in enumerate(self._switches)}
        self._switch_of_host = {h: rank[att(h)] for h in topology.hosts}
        #: Per-switch last successfully delivered reply ``(ids, rates)``
        #: — what a stale reply re-serves.
        self._last_good: dict[str, tuple[list[str], np.ndarray]] = {}
        #: Late replies ``(ids, counts, rates)`` keyed by the epoch they
        #: are addressed to: ``counts[i]`` samples of ``ids[i]``, back
        #: to back, oldest first.
        self._pending: dict[int, list[tuple[list[str], np.ndarray, np.ndarray]]] = {}
        self._next_epoch = 0
        self.polls_total = 0
        self.polls_lost = 0
        self.polls_stale = 0
        self.polls_delayed = 0

    # -- the epoch poll round ----------------------------------------------------

    def collect(self, epoch: int, traffic: TrafficSet, n_polls: int = 1) -> ObservedBatch:
        """Run ``n_polls`` stats rounds for ``epoch`` and return what arrived.

        ``traffic`` carries each flow's *true* current rate in
        ``demand_bps``.  Epochs must be visited in strictly increasing
        order; late batches are addressed to ``epoch + 1`` and arrive
        with the first epoch collected at or after it.
        """
        if n_polls <= 0:
            raise ConfigurationError(f"n_polls must be positive, got {n_polls}")
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        if epoch < self._next_epoch:
            raise ConfigurationError(
                f"collector already advanced past epoch {epoch} "
                f"(next is {self._next_epoch})"
            )
        self._next_epoch = epoch + 1
        # Late batches emitted in earlier epochs land first, oldest
        # address first — data a real controller receives after the
        # optimizer already ran.
        late = [
            chunk
            for due in sorted(e for e in self._pending if e <= epoch)
            for chunk in self._pending.pop(due)
        ]

        flows = traffic.flows
        ids = [f.flow_id for f in flows]
        switch_of = self._switch_of_host
        try:
            switch = np.array([switch_of[f.src] for f in flows], dtype=np.intp)
        except KeyError as exc:
            self.topology.attachment_switch(exc.args[0])
            raise
        demand = np.array([f.demand_bps for f in flows], dtype=float)

        # Every id the stream can name, sorted: samples are keyed by
        # rank, so late replies for departed flows need ranks too.
        departed = {i for chunk in late for i in chunk[0]}.difference(ids)
        names = sorted([*ids, *departed])
        pos = dict(zip(names, range(len(names))))
        rank = np.array([pos[i] for i in ids], dtype=np.intp)

        # One row per flow: grouped by switch in name order, by id within.
        rows = np.lexsort((rank, switch))
        switch, rank, demand = switch[rows], rank[rows], demand[rows]
        row_ids = [ids[r] for r in rows.tolist()]
        edges = np.flatnonzero(np.diff(switch, prepend=-1, append=-1))
        block = np.repeat(np.arange(edges.size - 1), np.diff(edges))
        polled = [self._switches[s] for s in switch[edges[:-1]].tolist()]
        starts, ends = edges[:-1].tolist(), edges[1:].tolist()

        outcome, replies = self._draw(epoch, polled, starts, ends, demand, n_polls)
        clean = outcome == _CLEAN
        stale = outcome == _STALE
        delayed = outcome == _DELAYED
        # A stale poll re-serves the switch's latest clean reply: one
        # from earlier in this epoch if there is one, else the reply
        # cached from an earlier epoch.
        latest = np.maximum.accumulate(np.where(clean, np.arange(n_polls), -1), axis=1)
        fresh = clean | (stale & (latest >= 0))
        from_cache = stale & (latest < 0)
        delivered = fresh[block]
        # ``values`` is None while every delivered sample is the flow's
        # true demand (noise off, nothing re-served from the cache).
        values = None
        if replies is not None:
            values = np.take_along_axis(replies, np.where(fresh, latest, 0)[block], axis=1)
        if from_cache.any():
            hit, cached = self._cached(polled, starts, ends, row_ids, from_cache.any(axis=1))
            cache_hit = from_cache[block] & hit[:, None]
            delivered |= cache_hit
            base = demand[:, None] if values is None else values
            values = np.where(cache_hit, cached[:, None], base)

        if delayed.any():
            in_flight = delayed[block]
            late_rows = np.flatnonzero(in_flight.any(axis=1))
            counts = in_flight[late_rows].sum(axis=1)
            rates = (
                np.repeat(demand[late_rows], counts)
                if replies is None
                else replies[late_rows][in_flight[late_rows]]
            )
            self._pending.setdefault(epoch + 1, []).append(
                ([row_ids[r] for r in late_rows.tolist()], counts, rates)
            )
        for b in np.flatnonzero(latest[:, -1] >= 0).tolist():
            lo, hi = starts[b], ends[b]
            reply = demand[lo:hi] if replies is None else replies[lo:hi, latest[b, -1]]
            self._last_good[polled[b]] = (row_ids[lo:hi], reply)

        n_rounds = outcome.size
        n_lost = int((outcome == _LOST).sum())
        n_stale = int(stale.sum())
        n_delayed = int(delayed.sum())
        self.polls_total += n_rounds
        self.polls_lost += n_lost
        self.polls_stale += n_stale
        self.polls_delayed += n_delayed

        # This epoch's samples in id order, each flow's in poll order.
        by_rank = np.argsort(rank)
        n_got = delivered.sum(axis=1)
        if values is None:
            rates = np.repeat(demand[by_rank], n_got[by_rank])
        else:
            rates = values[by_rank][delivered[by_rank]]
        counts = np.zeros(len(names), dtype=np.int64)
        counts[rank] = n_got
        if late:
            # One stable sort puts each flow's late samples ahead of
            # this epoch's and keeps both in arrival order.
            late_key = np.concatenate(
                [np.repeat([pos[i] for i in c_ids], c_counts) for c_ids, c_counts, _ in late]
            )
            key = np.concatenate([late_key, np.repeat(rank[by_rank], n_got[by_rank])])
            rates = np.concatenate([*(r for _, _, r in late), rates])[np.argsort(key, kind="stable")]
            counts += np.bincount(late_key, minlength=len(names))
        gap_counts = np.zeros(len(names), dtype=np.int64)
        gap_counts[rank] = n_polls - n_got
        sampled = np.flatnonzero(counts)
        gapped = np.flatnonzero(gap_counts)
        return ObservedBatch(
            epoch=epoch,
            sample_ids=names if sampled.size == len(names) else [names[i] for i in sampled.tolist()],
            sample_counts=counts[sampled],
            rates=rates,
            gap_ids=[names[i] for i in gapped.tolist()],
            gap_counts=gap_counts[gapped],
            n_polls=n_rounds,
            n_lost=n_lost,
            n_stale=n_stale,
            n_delayed=n_delayed,
        )

    def _draw(self, epoch, polled, starts, ends, demand, n_polls):
        """Every poll's outcome, drawn switch by switch in stream order.

        Returns the ``(switches, polls)`` outcome codes and, when the
        profile has counter noise, the ``(rows, polls)`` matrix of the
        replies each clean or delayed poll carries (``None`` without
        noise: every reply is then the true demand).  Each switch's
        generator yields one uniform per poll and, after a clean or
        delayed one, that reply's noise vector.
        """
        profile = self.profile
        if profile.is_perfect:
            # Every uniform lands at or above the zero thresholds: all
            # polls are clean, so no switch's generator is built.
            return np.full((len(polled), n_polls), _CLEAN, dtype=np.int8), None
        t_lost = profile.stats_loss_prob
        t_stale = t_lost + profile.stale_prob
        t_delayed = t_stale + profile.delay_prob
        noise = profile.noise_frac
        u = np.empty((len(polled), n_polls))
        scale = np.ones((demand.size, n_polls)) if noise > 0.0 else None
        for b, name in enumerate(polled):
            rng = profile.rng_for(epoch, name)
            if scale is None:
                u[b] = rng.random(n_polls)
                continue
            lo, hi = starts[b], ends[b]
            for k in range(n_polls):
                u[b, k] = x = rng.random()
                if x >= t_stale:
                    # True rates with bounded multiplicative counter error.
                    scale[lo:hi, k] = 1.0 + rng.uniform(-noise, noise, size=hi - lo)
        outcome = (u >= t_lost).astype(np.int8) + (u >= t_stale) + (u >= t_delayed)
        replies = None if scale is None else np.maximum(0.0, demand[:, None] * scale)
        return outcome, replies

    def _cached(self, polled, starts, ends, row_ids, need):
        """Per row, whether its switch's cached reply names the flow,
        and the cached rate (for the switches flagged in ``need``)."""
        hit = np.zeros(len(row_ids), dtype=bool)
        rates = np.zeros(len(row_ids))
        for b in np.flatnonzero(need).tolist():
            cached = self._last_good.get(polled[b])
            if cached is None:
                # A switch that never answered cleanly has nothing to
                # re-serve, so the poll degenerates to a loss.
                continue
            c_ids, c_rates = cached
            at = dict(zip(c_ids, range(len(c_ids))))
            for r in range(starts[b], ends[b]):
                j = at.get(row_ids[r])
                if j is not None:
                    hit[r] = True
                    rates[r] = c_rates[j]
        return hit, rates

    # -- monitor feeding ---------------------------------------------------------

    def feed(self, monitor, epoch: int, traffic: TrafficSet, n_polls: int = 1) -> ObservedBatch:
        """Collect one epoch and push it into a ``TrafficMonitor``.

        Delivered samples become observations; empty polls become
        recorded gaps, so the monitor's staleness accounting sees the
        difference between "no flow" and "no reply".  The whole batch
        goes in one :meth:`~repro.control.monitor.TrafficMonitor.observe_batch`
        call, which touches flows in the same order as observing every
        sample (sorted sample flows, then sorted gap flows) would.
        """
        batch = self.collect(epoch, traffic, n_polls=n_polls)
        monitor.observe_batch(batch)
        return batch

    def accounting(self) -> dict:
        """Cumulative poll-outcome counters (picklable sweep payload)."""
        return {
            "polls_total": self.polls_total,
            "polls_lost": self.polls_lost,
            "polls_stale": self.polls_stale,
            "polls_delayed": self.polls_delayed,
        }
