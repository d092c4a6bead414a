"""Traffic statistics monitoring (the controller's 2-second poll).

The POX controller of the paper "fetches flow statistics and link
utilization every 2 s with an openflow message" and predicts each
flow's next-epoch demand as the 90th percentile of the last epoch
(Section II).  :class:`TrafficMonitor` is that component: it ingests
per-flow rate observations and produces the *predicted* traffic set the
optimizer consolidates.

A real control plane does not see every poll.  The monitor therefore
carries gap-aware semantics: dropped stats replies are recorded as
*gaps* (missing-sample accounting, never implicit zero demand), a
configurable staleness discount inflates predictions for flows whose
window is riddled with gaps, and a flow whose entire window was lost
falls back to its last good epoch's prediction instead of silently
reverting to its admission-time estimate.

The poll windows live in one columnar store: one row per tracked flow,
holding its last ``window`` polls in chronological order with a
delivered/gap mask.  Each epoch's percentiles and window means come from
one vectorized pass over the store, grouped by delivered-sample count;
rows stay chronological, so every result is bit-identical to a
:class:`~repro.flows.prediction.PercentilePredictor` fed the same polls.

An epoch of polls arrives as one :class:`~repro.telemetry.ObservedBatch`,
already in the store's ingest format (sorted ids, counts, flat rates).
The traffic views it hands back (:meth:`TrafficMonitor.predicted_traffic`,
:meth:`TrafficMonitor.observed_traffic`) are built in bulk by
:meth:`~repro.flows.traffic.TrafficSet.with_demands`: the new demands
are checked in one vectorized pass, a flow whose demand changes is
copied from the validated base flow, and every other flow is the base
flow itself.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..flows.traffic import TrafficSet

__all__ = ["TrafficMonitor"]


class TrafficMonitor:
    """Per-flow rate observation and demand prediction.

    Parameters
    ----------
    q:
        Prediction percentile (90 per the paper).
    window:
        Samples per epoch: with a 2-s poll and a 10-min optimization
        period, one epoch holds 300 samples.
    max_tracked_flows:
        Upper bound on simultaneously tracked flows.  ``None`` (the
        default) keeps the historical unbounded behaviour; with a
        bound, admitting a new flow at capacity evicts the least
        recently observed one (deterministic: observation order) and
        increments :attr:`evictions` so operators can see the monitor
        is shedding state.
    staleness_inflation:
        Headroom multiplier under missing telemetry: a flow predicted
        from a window with gap fraction ``g`` reserves
        ``predicted * (1 + staleness_inflation * g)``.  ``0.0`` (the
        default) reproduces the historical prediction bit-exactly.
    """

    POLL_PERIOD_S = 2.0

    def __init__(
        self,
        q: float = 90.0,
        window: int = 300,
        max_tracked_flows: int | None = None,
        staleness_inflation: float = 0.0,
    ):
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile q={q} outside [0, 100]")
        if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window <= 0:
            raise ConfigurationError(f"window must be a positive integer, got {window!r}")
        if max_tracked_flows is not None and max_tracked_flows <= 0:
            raise ConfigurationError(
                f"max_tracked_flows must be positive, got {max_tracked_flows}"
            )
        if not (math.isfinite(staleness_inflation) and staleness_inflation >= 0):
            raise ConfigurationError(
                "staleness_inflation must be non-negative and finite, "
                f"got {staleness_inflation}"
            )
        self.q = q
        self.window = int(window)
        self.max_tracked_flows = max_tracked_flows
        self.staleness_inflation = staleness_inflation
        #: Tracked flow id -> store row, in least-recently-observed order.
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        # The store.  Each row is right-aligned: its ``_n_polls[r]``
        # polls sit in the last columns, oldest first; unused slots are
        # gaps.
        self._values = np.zeros((0, self.window))
        self._delivered = np.zeros((0, self.window), dtype=bool)
        self._n_polls = np.zeros(0, dtype=np.int64)
        self._total_gaps = np.zeros(0, dtype=np.int64)
        #: Last successfully computed prediction per row — the fallback
        #: when a whole window of polls is lost.
        self._last_good = np.zeros(0)
        self._has_last_good = np.zeros(0, dtype=bool)
        #: Per-row (sample count, percentile, mean); ``None`` once an
        #: ingest has changed the windows.
        self._stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.evictions = 0
        self.fallbacks = 0
        # Never empty: untracked flows index row 0 as a masked placeholder.
        self._grow_rows()

    # -- row bookkeeping ---------------------------------------------------------

    def _grow_rows(self) -> None:
        old = self._n_polls.size
        extra = max(old, 64)
        self._values = np.vstack([self._values, np.zeros((extra, self.window))])
        self._delivered = np.vstack([self._delivered, np.zeros((extra, self.window), dtype=bool)])
        self._n_polls = np.concatenate([self._n_polls, np.zeros(extra, dtype=np.int64)])
        self._total_gaps = np.concatenate([self._total_gaps, np.zeros(extra, dtype=np.int64)])
        self._last_good = np.concatenate([self._last_good, np.zeros(extra)])
        self._has_last_good = np.concatenate([self._has_last_good, np.zeros(extra, dtype=bool)])
        self._free.extend(range(old + extra - 1, old - 1, -1))
        self._stats = None

    def _release(self, rows) -> None:
        """Clear rows and return them to the free list."""
        rows = np.asarray(rows, dtype=np.intp)
        self._delivered[rows] = False
        self._n_polls[rows] = 0
        self._total_gaps[rows] = 0
        self._has_last_good[rows] = False
        self._free.extend(rows.tolist())

    def _touch(self, flow_id: str) -> int:
        """The flow's row, allocated (and capacity-enforced) on demand.

        Touching a flow moves it to the back of the eviction order, so
        "oldest" always means least recently observed.
        """
        row = self._rows.pop(flow_id, None)
        if row is None:
            if (
                self.max_tracked_flows is not None
                and len(self._rows) >= self.max_tracked_flows
            ):
                oldest = next(iter(self._rows))
                self._release([self._rows.pop(oldest)])
                self.evictions += 1
            if not self._free:
                self._grow_rows()
            row = self._free.pop()
        self._rows[flow_id] = row
        return row

    def _ingest(self, flow_ids: list[str], counts: list[int], rates: np.ndarray | None) -> None:
        """Append ``counts[i]`` polls to flow ``flow_ids[i]``'s window.

        Flows are touched in list order.  ``rates`` holds the delivered
        samples of every flow back to back in the same order, or is
        ``None`` when the polls are gaps.
        """
        if not flow_ids:
            return
        self._stats = None
        evictions = self.evictions
        rows = np.fromiter((self._touch(fid) for fid in flow_ids), np.intp, len(flow_ids))
        counts_arr = np.asarray(counts, dtype=np.int64)
        if rates is not None:
            starts = np.cumsum(counts_arr) - counts_arr
        if self.evictions != evictions:
            # A flow evicted later in this same call loses its row (maybe
            # to another flow), and with it the polls queued for it.
            keep = np.fromiter(
                (self._rows.get(fid) == row for fid, row in zip(flow_ids, rows.tolist())),
                bool,
                len(flow_ids),
            )
            rows, counts_arr = rows[keep], counts_arr[keep]
            if rates is not None:
                starts = starts[keep]
        for k in np.unique(counts_arr).tolist():
            sel = counts_arr == k
            group = rows[sel]
            new = None if rates is None else rates[starts[sel][:, None] + np.arange(k)]
            self._push(group, k, new)
            if rates is None:
                self._total_gaps[group] += k

    def _push(self, rows: np.ndarray, k: int, new: np.ndarray | None) -> None:
        """Slide ``k`` polls into each row (``new``: their samples, or
        ``None`` for gaps).

        The window is over *polls*: a delivered sample leaves with its
        poll once ``window`` newer polls have arrived.
        """
        w = self.window
        delivered = new is not None
        if k >= w:
            if delivered:
                self._values[rows] = new[:, k - w:]
            self._delivered[rows] = delivered
        else:
            self._values[rows, : w - k] = self._values[rows, k:]
            self._delivered[rows, : w - k] = self._delivered[rows, k:]
            if delivered:
                self._values[rows, w - k:] = new
            self._delivered[rows, w - k:] = delivered
        self._n_polls[rows] = np.minimum(self._n_polls[rows] + k, w)

    @staticmethod
    def _check_rates(rates: np.ndarray) -> None:
        if not np.isfinite(rates).all():
            raise ConfigurationError("rates must be finite")
        if (rates < 0).any():
            raise ConfigurationError("rates must be non-negative")

    # -- ingest ------------------------------------------------------------------

    def observe(self, flow_id: str, rate_bps: float) -> None:
        """Record one polled rate sample for a flow."""
        rates = np.array([rate_bps], dtype=float)
        self._check_rates(rates)
        self._ingest([flow_id], [1], rates)

    def observe_gap(self, flow_id: str) -> None:
        """Record one poll for which the flow's stats reply was lost."""
        self._ingest([flow_id], [1], None)

    def observe_batch(self, batch) -> None:
        """Record one epoch of delivered telemetry in a single call.

        ``batch`` is an :class:`~repro.telemetry.ObservedBatch`: sorted
        sample flows with their rates back to back (oldest first), then
        sorted gap flows with their lost-poll counts.  Flows are touched
        as the per-poll loop over the sample flows, then the gap flows,
        would touch them, so ``max_tracked_flows`` evicts the same
        flows.  The whole batch is validated before any state changes.
        """
        for ids, n in ((batch.sample_ids, batch.sample_counts), (batch.gap_ids, batch.gap_counts)):
            if len(ids) != n.size or (n <= 0).any() or any(a >= b for a, b in zip(ids, ids[1:])):
                raise ConfigurationError("batch flows need sorted unique ids and positive counts")
        if batch.sample_counts.sum() != batch.rates.size:
            raise ConfigurationError("batch sample counts do not match its rates")
        self._check_rates(batch.rates)
        self._ingest(batch.sample_ids, batch.sample_counts, batch.rates)
        self._ingest(batch.gap_ids, batch.gap_counts, None)

    # -- per-flow queries ----------------------------------------------------------

    def _window_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row delivered-sample count, percentile and window mean.

        Rows are grouped by sample count so each group is one dense
        matrix of chronological samples: one ``np.percentile`` and one
        ``np.mean`` call per group, each row reduced exactly as the
        single-flow predictor reduces its window.
        """
        if self._stats is None:
            n_samples = self._delivered.sum(axis=1)
            pred = np.zeros(n_samples.size)
            mean = np.zeros(n_samples.size)
            for c in np.unique(n_samples).tolist():
                if c == 0:
                    continue
                sel = np.flatnonzero(n_samples == c)
                m = self._values[sel][self._delivered[sel]].reshape(sel.size, c)
                pred[sel] = np.percentile(m, self.q, axis=1)
                mean[sel] = np.mean(m, axis=1)
            self._stats = (n_samples, pred, mean)
        return self._stats

    def n_tracked_flows(self) -> int:
        return len(self._rows)

    def has_prediction(self, flow_id: str) -> bool:
        row = self._rows.get(flow_id)
        return row is not None and bool(self._delivered[row].any())

    def gap_fraction(self, flow_id: str) -> float:
        """Fraction of the flow's window that was dropped polls."""
        row = self._rows.get(flow_id)
        if row is None or self._n_polls[row] == 0:
            return 0.0
        n_polls = int(self._n_polls[row])
        return (n_polls - int(self._delivered[row].sum())) / n_polls

    def predicted_demand(self, flow_id: str) -> float:
        """Predicted next-epoch demand (bit/s) for one flow."""
        if not self.has_prediction(flow_id):
            raise ConfigurationError(f"no observations for flow {flow_id!r}")
        return float(self._window_stats()[1][self._rows[flow_id]])

    # -- traffic views -----------------------------------------------------------

    def _base_rows(self, base: TrafficSet) -> tuple[np.ndarray, np.ndarray]:
        """Each base flow's row (0 when untracked) and a tracked mask."""
        get = self._rows.get
        idx = np.fromiter((get(f.flow_id, -1) for f in base), np.intp, len(base))
        tracked = idx >= 0
        return np.where(tracked, idx, 0), tracked

    def predicted_traffic(self, base: TrafficSet) -> TrafficSet:
        """The base traffic set with demands replaced by predictions.

        Three cases per flow:

        * **observed** — the percentile prediction, inflated by the
          staleness discount when the window has gaps;
        * **tracked but blind** (every poll in the window dropped) —
          the last good epoch's prediction, counted in
          :attr:`fallbacks`; a flow with no good epoch yet keeps its
          configured demand;
        * **never seen** — the configured demand (a new flow's first
          epoch uses its admission-time estimate, as a real controller
          must).
        """
        rows, tracked = self._base_rows(base)
        n_samples, pred, _ = self._window_stats()
        n_samples = n_samples[rows]
        observed = tracked & (n_samples > 0)
        predicted = np.maximum(pred[rows], 1.0)
        if self.staleness_inflation > 0.0:
            n_polls = self._n_polls[rows]
            gap = (n_polls - n_samples) / np.maximum(n_polls, 1)
            stale = observed & (gap > 0.0)
            predicted[stale] *= 1.0 + self.staleness_inflation * gap[stale]
        blind = tracked & ~observed & self._has_last_good[rows]
        demand = np.where(observed, predicted, self._last_good[rows])
        self.fallbacks += int(blind.sum())
        self._last_good[rows[observed]] = predicted[observed]
        self._has_last_good[rows[observed]] = True
        return base.with_demands(demand, observed | blind)

    def observed_traffic(self, base: TrafficSet) -> TrafficSet:
        """The base traffic set with demands replaced by *measured* load.

        Uses the mean of each flow's delivered window samples — no
        percentile, no inflation — falling back to the configured
        demand where nothing was measured.  This is the admission
        check's replay input: "would the candidate subnet carry what we
        actually saw?", deliberately independent of the predictor the
        candidate was solved from.
        """
        rows, tracked = self._base_rows(base)
        n_samples, _, mean = self._window_stats()
        observed = tracked & (n_samples[rows] > 0)
        return base.with_demands(np.maximum(mean[rows], 1.0), observed)

    # -- lifecycle ---------------------------------------------------------------

    def forget(self, flow_id: str) -> None:
        """Drop a departed flow's history."""
        row = self._rows.pop(flow_id, None)
        if row is not None:
            self._release([row])

    def prune(self, active_flow_ids) -> int:
        """Forget every tracked flow not in ``active_flow_ids``.

        Called by the controller each epoch with the offered traffic's
        flow ids; without it, churned-out flows leak rows (and their
        sample windows) for the lifetime of the run.  Returns the
        number of flows dropped.
        """
        active = set(active_flow_ids)
        departed = [fid for fid in self._rows if fid not in active]
        if departed:
            self._release([self._rows.pop(fid) for fid in departed])
        return len(departed)

    def telemetry_counters(self) -> dict:
        """Gap/eviction/fallback accounting (picklable sweep payload)."""
        rows = np.fromiter(self._rows.values(), np.intp, len(self._rows))
        n_polls = self._n_polls[rows]
        n_samples = self._delivered[rows].sum(axis=1)
        return {
            "tracked_flows": len(self._rows),
            "evictions": self.evictions,
            "fallbacks": self.fallbacks,
            "window_gaps": int((n_polls - n_samples).sum()),
            "total_gaps": int(self._total_gaps[rows].sum()),
        }
