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

Replay is seed-deterministic and independent of iteration order:
every (epoch, switch) pair draws from its own content-keyed generator,
and flows within a reply are processed in sorted id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..flows.traffic import TrafficSet
from ..topology.graph import Topology
from .profile import TelemetryProfile

__all__ = ["ObservedBatch", "DegradedStatsCollector"]


@dataclass(frozen=True)
class ObservedBatch:
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

        samples: dict[str, list[float]] = {}
        gaps: dict[str, int] = {}
        n_rounds = n_lost = n_stale = n_delayed = 0

        # Late batches emitted in an earlier epoch land first — data a
        # real controller receives after the optimizer already ran.
        for batch in self._pending.pop(epoch, ()):
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

        return ObservedBatch(
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
