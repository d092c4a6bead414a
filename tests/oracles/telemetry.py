"""Dict-keyed reference implementations of the telemetry path.

Production collection and monitoring run on flat arrays: the collector
emits one :class:`~repro.telemetry.ObservedBatch` of sorted ids, counts
and rates per epoch, and :class:`~repro.control.monitor.TrafficMonitor`
keeps every poll window in one columnar store.  The classes here are
the designs they replaced, kept only as the executable specification
(``tests/test_telemetry_oracle.py`` and ``tests/test_monitor_columnar.py``
compare against them):

* :class:`ReferenceStatsCollector` — the per-flow collector that builds
  a ``{flow_id: rate}`` dict per reply and a ``dict[str, list[float]]``
  of samples per epoch (:class:`ReferenceObservedBatch`);
* :class:`ReferenceMonitor` — one
  :class:`~repro.flows.prediction.PercentilePredictor` per tracked flow,
  in least-recently-observed order, fed one poll at a time.

:func:`batch_from_dicts` and :func:`batch_to_dicts` convert between the
reference's dicts and the production batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.flows.prediction import PercentilePredictor
from repro.flows.traffic import TrafficSet
from repro.telemetry import ObservedBatch, TelemetryProfile
from repro.topology.graph import Topology

__all__ = [
    "ReferenceObservedBatch",
    "ReferenceStatsCollector",
    "ReferenceMonitor",
    "batch_from_dicts",
    "batch_to_dicts",
]


def batch_from_dicts(samples: dict[str, list[float]], gaps: dict[str, int]) -> ObservedBatch:
    """The production batch for per-flow sample lists and gap counts.

    Flows without samples or with a zero gap count are left out, as the
    reference monitor's per-poll loop never touches them; a negative gap
    count is kept, for the monitor to reject.
    """
    sample_ids = sorted(fid for fid in samples if len(samples[fid]))
    gap_ids = sorted(fid for fid in gaps if gaps[fid] != 0)
    return ObservedBatch(
        epoch=0,
        sample_ids=sample_ids,
        sample_counts=np.array([len(samples[fid]) for fid in sample_ids], dtype=np.int64),
        rates=np.array([r for fid in sample_ids for r in samples[fid]], dtype=float),
        gap_ids=gap_ids,
        gap_counts=np.array([gaps[fid] for fid in gap_ids], dtype=np.int64),
    )


def batch_to_dicts(batch: ObservedBatch) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Per-flow sample lists and gap counts of a production batch."""
    ends = np.cumsum(batch.sample_counts).tolist()
    starts = [0, *ends[:-1]]
    rates = batch.rates.tolist()
    samples = {
        fid: rates[lo:hi] for fid, lo, hi in zip(batch.sample_ids, starts, ends)
    }
    return samples, dict(zip(batch.gap_ids, batch.gap_counts.tolist()))


@dataclass(frozen=True)
class ReferenceObservedBatch:
    """One epoch's delivered telemetry.

    ``samples`` holds the rate observations that actually arrived this
    epoch (including late batches emitted in a previous one); ``gaps``
    counts the polls per flow that produced nothing — the monitor's
    missing-sample accounting feeds on it.
    """

    epoch: int
    samples: dict[str, list[float]] = field(default_factory=dict)
    gaps: dict[str, int] = field(default_factory=dict)
    n_polls: int = 0
    n_lost: int = 0
    n_stale: int = 0
    n_delayed: int = 0

    @property
    def n_delivered_samples(self) -> int:
        return sum(len(v) for v in self.samples.values())


class ReferenceStatsCollector:
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
        #: Per-switch last successfully delivered {flow_id: rate} —
        #: what a stale reply re-serves.
        self._last_good: dict[str, dict[str, float]] = {}
        #: Late batches keyed by the epoch they arrive in.
        self._pending: dict[int, list[dict[str, float]]] = {}
        self._next_epoch = 0
        self.polls_total = 0
        self.polls_lost = 0
        self.polls_stale = 0
        self.polls_delayed = 0

    # -- grouping ----------------------------------------------------------------

    def _by_switch(self, traffic: TrafficSet) -> list[tuple[str, list]]:
        """Flows grouped by reporting switch, both levels sorted."""
        groups: dict[str, list] = {}
        for flow in traffic:
            sw = self.topology.attachment_switch(flow.src)
            groups.setdefault(sw, []).append(flow)
        return [
            (sw, sorted(groups[sw], key=lambda f: f.flow_id)) for sw in sorted(groups)
        ]

    # -- the epoch poll round ----------------------------------------------------

    def collect(
        self, epoch: int, traffic: TrafficSet, n_polls: int = 1
    ) -> ReferenceObservedBatch:
        """Run ``n_polls`` stats rounds for ``epoch`` and return what arrived.

        ``traffic`` carries each flow's *true* current rate in
        ``demand_bps``.  Epochs must be visited in strictly increasing
        order; late batches are addressed to ``epoch + 1`` and arrive
        with the first epoch collected at or after it.
        """
        if n_polls <= 0:
            raise ConfigurationError(f"n_polls must be positive, got {n_polls}")
        if epoch < self._next_epoch:
            raise ConfigurationError(
                f"collector already advanced past epoch {epoch} "
                f"(next is {self._next_epoch})"
            )
        self._next_epoch = epoch + 1

        samples: dict[str, list[float]] = {}
        gaps: dict[str, int] = {}
        n_rounds = n_lost = n_stale = n_delayed = 0

        # Late batches emitted in an earlier epoch land first, oldest
        # address first — data a real controller receives after the
        # optimizer already ran.
        for due in sorted(e for e in self._pending if e <= epoch):
            for batch in self._pending.pop(due):
                for fid in sorted(batch):
                    samples.setdefault(fid, []).append(batch[fid])

        p_loss = self.profile.stats_loss_prob
        p_stale = self.profile.stale_prob
        p_delay = self.profile.delay_prob
        noise = self.profile.noise_frac

        for switch, flows in self._by_switch(traffic):
            rng = self.profile.rng_for(epoch, switch)
            for _ in range(n_polls):
                self.polls_total += 1
                n_rounds += 1
                u = rng.random()
                if u < p_loss:
                    self.polls_lost += 1
                    n_lost += 1
                    for f in flows:
                        gaps[f.flow_id] = gaps.get(f.flow_id, 0) + 1
                    continue
                if u < p_loss + p_stale:
                    # Re-serve the last delivered counters; a switch that
                    # never answered cleanly has nothing to re-serve, so
                    # the poll degenerates to a loss.
                    self.polls_stale += 1
                    n_stale += 1
                    cached = self._last_good.get(switch)
                    for f in flows:
                        if cached is not None and f.flow_id in cached:
                            samples.setdefault(f.flow_id, []).append(cached[f.flow_id])
                        else:
                            gaps[f.flow_id] = gaps.get(f.flow_id, 0) + 1
                    continue
                values = self._noisy_values(flows, rng, noise)
                if u < p_loss + p_stale + p_delay:
                    # The reply is in flight but late: it surfaces next
                    # epoch, and this epoch's poll window stays empty.
                    self.polls_delayed += 1
                    n_delayed += 1
                    self._pending.setdefault(epoch + 1, []).append(values)
                    for f in flows:
                        gaps[f.flow_id] = gaps.get(f.flow_id, 0) + 1
                    continue
                for fid in sorted(values):
                    samples.setdefault(fid, []).append(values[fid])
                self._last_good[switch] = values

        return ReferenceObservedBatch(
            epoch=epoch,
            samples=samples,
            gaps=gaps,
            n_polls=n_rounds,
            n_lost=n_lost,
            n_stale=n_stale,
            n_delayed=n_delayed,
        )

    def _noisy_values(self, flows, rng, noise: float) -> dict[str, float]:
        """True rates with bounded multiplicative counter error."""
        if noise > 0.0:
            eps = rng.uniform(-noise, noise, size=len(flows))
        else:
            eps = np.zeros(len(flows))
        return {
            f.flow_id: max(0.0, f.demand_bps * (1.0 + float(e)))
            for f, e in zip(flows, eps)
        }

    # -- monitor feeding ---------------------------------------------------------

    def feed(
        self, monitor, epoch: int, traffic: TrafficSet, n_polls: int = 1
    ) -> ReferenceObservedBatch:
        """Collect one epoch and push it into a :class:`ReferenceMonitor`.

        Delivered samples become observations; empty polls become
        recorded gaps, so the monitor's staleness accounting sees the
        difference between "no flow" and "no reply".  The whole batch
        goes in one :meth:`ReferenceMonitor.observe_batch` call, which
        observes every sample (sorted sample flows, then sorted gap flows).
        """
        batch = self.collect(epoch, traffic, n_polls=n_polls)
        monitor.observe_batch(batch.samples, batch.gaps)
        return batch

    def accounting(self) -> dict:
        """Cumulative poll-outcome counters (picklable sweep payload)."""
        return {
            "polls_total": self.polls_total,
            "polls_lost": self.polls_lost,
            "polls_stale": self.polls_stale,
            "polls_delayed": self.polls_delayed,
        }


class ReferenceMonitor:
    """The per-flow monitor: one ``PercentilePredictor`` per tracked flow."""

    def __init__(self, q, window, max_tracked_flows=None, staleness_inflation=0.0):
        self.q = q
        self.window = window
        self.max_tracked_flows = max_tracked_flows
        self.staleness_inflation = staleness_inflation
        self.predictors: dict[str, PercentilePredictor] = {}
        self.last_good: dict[str, float] = {}
        self.evictions = 0
        self.fallbacks = 0

    def _predictor(self, fid):
        p = self.predictors.pop(fid, None)
        if p is None:
            if (
                self.max_tracked_flows is not None
                and len(self.predictors) >= self.max_tracked_flows
            ):
                oldest = next(iter(self.predictors))
                del self.predictors[oldest]
                self.last_good.pop(oldest, None)
                self.evictions += 1
            p = PercentilePredictor(q=self.q, window=self.window)
        self.predictors[fid] = p
        return p

    def observe(self, fid, rate):
        self._predictor(fid).observe(rate)

    def observe_gap(self, fid):
        self._predictor(fid).record_gap()

    def observe_batch(self, samples, gaps):
        for fid in sorted(samples):
            for rate in samples[fid]:
                self.observe(fid, rate)
        for fid in sorted(gaps):
            for _ in range(gaps[fid]):
                self.observe_gap(fid)

    def has_prediction(self, fid):
        p = self.predictors.get(fid)
        return p is not None and p.n_samples > 0

    def gap_fraction(self, fid):
        p = self.predictors.get(fid)
        return p.gap_fraction if p is not None else 0.0

    def predicted_demands(self, base):
        out = {}
        for flow in base:
            fid = flow.flow_id
            p = self.predictors.get(fid)
            if p is not None and p.n_samples > 0:
                predicted = max(p.predict(), 1.0)
                gap = p.gap_fraction
                if self.staleness_inflation > 0.0 and gap > 0.0:
                    predicted *= 1.0 + self.staleness_inflation * gap
                self.last_good[fid] = predicted
                out[fid] = predicted
            elif p is not None and fid in self.last_good:
                self.fallbacks += 1
                out[fid] = self.last_good[fid]
            else:
                out[fid] = flow.demand_bps
        return out

    def observed_demands(self, base):
        out = {}
        for flow in base:
            p = self.predictors.get(flow.flow_id)
            if p is not None and p.n_samples > 0:
                out[flow.flow_id] = max(p.window_mean(), 1.0)
            else:
                out[flow.flow_id] = flow.demand_bps
        return out

    def forget(self, fid):
        self.predictors.pop(fid, None)
        self.last_good.pop(fid, None)

    def prune(self, active):
        active = set(active)
        departed = [fid for fid in self.predictors if fid not in active]
        for fid in departed:
            del self.predictors[fid]
            self.last_good.pop(fid, None)
        return len(departed)

    def telemetry_counters(self):
        return {
            "tracked_flows": len(self.predictors),
            "evictions": self.evictions,
            "fallbacks": self.fallbacks,
            "window_gaps": sum(p.n_gaps for p in self.predictors.values()),
            "total_gaps": sum(p.total_gaps for p in self.predictors.values()),
        }
