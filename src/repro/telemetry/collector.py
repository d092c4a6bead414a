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
flows are sorted once by (attachment switch, flow id), so every switch
is a contiguous block of rows; the delivered samples leave as one
:class:`ObservedBatch` of flat arrays in the monitor's ingest format.

Replay is seed-deterministic and independent of iteration order:
every (epoch, switch) pair draws from its own content-keyed generator,
and flows within a reply are processed in sorted id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..errors import ConfigurationError
from ..flows.traffic import TrafficSet
from ..topology.graph import Topology
from .profile import TelemetryProfile

__all__ = ["ObservedBatch", "DegradedStatsCollector"]


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
        #: Per-switch last successfully delivered reply ``(ids, rates)``
        #: — what a stale reply re-serves.
        self._last_good: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: Late replies ``(ids, rates)`` keyed by the epoch they arrive in.
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
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
        order (late batches are addressed to ``epoch + 1``).
        """
        if n_polls <= 0:
            raise ConfigurationError(f"n_polls must be positive, got {n_polls}")
        if epoch < self._next_epoch:
            raise ConfigurationError(
                f"collector already advanced past epoch {epoch} "
                f"(next is {self._next_epoch})"
            )
        self._next_epoch = epoch + 1

        att = self.topology.attachment_switch
        rows = sorted((att(f.src), f.flow_id, f.demand_bps) for f in traffic)
        ids = np.array([r[1] for r in rows], dtype=str)
        demand = np.array([r[2] for r in rows], dtype=float)
        gaps = np.zeros(len(rows), dtype=np.int64)
        late = self._pending.pop(epoch, [])
        # Every id the stream can name, sorted: samples are keyed by
        # rank, so late replies for departed flows need ranks too.
        names = np.unique(np.concatenate([ids, *(i for i, _ in late)]))
        rank = np.searchsorted(names, ids)
        # The sample stream as (rank, rate) chunks in arrival order.
        # Late batches emitted in an earlier epoch land first — data a
        # real controller receives after the optimizer already ran.
        keys = [np.searchsorted(names, i) for i, _ in late]
        values = [v for _, v in late]
        n_rounds = n_lost = n_stale = n_delayed = 0

        p_loss = self.profile.stats_loss_prob
        p_stale = self.profile.stale_prob
        p_delay = self.profile.delay_prob
        noise = self.profile.noise_frac

        lo = 0
        for switch, block in groupby(r[0] for r in rows):
            hi = lo + sum(1 for _ in block)
            rng = self.profile.rng_for(epoch, switch)
            for _ in range(n_polls):
                n_rounds += 1
                u = rng.random()
                if u < p_loss:
                    n_lost += 1
                    gaps[lo:hi] += 1
                    continue
                if u < p_loss + p_stale:
                    # Re-serve the last delivered counters; a switch that
                    # never answered cleanly has nothing to re-serve, so
                    # the poll degenerates to a loss.
                    n_stale += 1
                    c_ids, c_rates = self._last_good.get(switch, (ids[:0], demand[:0]))
                    hit = np.isin(ids[lo:hi], c_ids)
                    keys.append(rank[lo:hi][hit])
                    values.append(c_rates[np.searchsorted(c_ids, ids[lo:hi][hit])])
                    gaps[lo:hi] += ~hit
                    continue
                # True rates with bounded multiplicative counter error.
                scale = 1.0 + rng.uniform(-noise, noise, size=hi - lo) if noise > 0.0 else 1.0
                reply = (ids[lo:hi], np.maximum(0.0, demand[lo:hi] * scale))
                if u < p_loss + p_stale + p_delay:
                    # The reply is in flight but late: it surfaces next
                    # epoch, and this epoch's poll window stays empty.
                    n_delayed += 1
                    self._pending.setdefault(epoch + 1, []).append(reply)
                    gaps[lo:hi] += 1
                    continue
                keys.append(rank[lo:hi])
                values.append(reply[1])
                self._last_good[switch] = reply
            lo = hi
        self.polls_total += n_rounds
        self.polls_lost += n_lost
        self.polls_stale += n_stale
        self.polls_delayed += n_delayed

        # One stable sort groups the stream by flow and keeps each
        # flow's samples in arrival order.
        key = np.concatenate([np.zeros(0, dtype=np.intp), *keys])
        counts = np.bincount(key, minlength=names.size)
        sampled = np.flatnonzero(counts)
        gap_counts = np.zeros(names.size, dtype=np.int64)
        gap_counts[rank] = gaps
        gapped = np.flatnonzero(gap_counts)
        return ObservedBatch(
            epoch=epoch,
            sample_ids=names[sampled].tolist(),
            sample_counts=counts[sampled],
            rates=np.concatenate([np.zeros(0), *values])[np.argsort(key, kind="stable")],
            gap_ids=names[gapped].tolist(),
            gap_counts=gap_counts[gapped],
            n_polls=n_rounds,
            n_lost=n_lost,
            n_stale=n_stale,
            n_delayed=n_delayed,
        )

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
