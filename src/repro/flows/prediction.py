"""Bandwidth-demand prediction (paper Section II, step i).

Traffic consolidation runs on *predicted* next-epoch demands: "the 90th
percentile traffic data rate of the last epoch is used to predict the
flow's bandwidth demand in the next epoch", and a safety margin on link
capacity absorbs prediction error.

:class:`PercentilePredictor` implements exactly that; the safety margin
lives here too (:func:`usable_capacity`) so both the MILP and the
heuristic apply the same headroom.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..stats import percentile

__all__ = ["PercentilePredictor", "EpochStats", "usable_capacity", "DEFAULT_SAFETY_MARGIN_BPS"]

#: The paper's example safety margin: 50 Mbps on 1 Gbps links (Fig. 2).
DEFAULT_SAFETY_MARGIN_BPS = 50e6


def usable_capacity(capacity_bps: float, safety_margin_bps: float = DEFAULT_SAFETY_MARGIN_BPS) -> float:
    """Link capacity available to reserved flows after the safety margin.

    Raises if the margin consumes the entire link — a misconfiguration
    that would make every instance infeasible.
    """
    if capacity_bps <= 0:
        raise ConfigurationError("capacity must be positive")
    if safety_margin_bps < 0:
        raise ConfigurationError("safety margin must be non-negative")
    usable = capacity_bps - safety_margin_bps
    if usable <= 0:
        raise ConfigurationError(
            f"safety margin {safety_margin_bps} leaves no usable capacity on a "
            f"{capacity_bps} bit/s link"
        )
    return usable


class PercentilePredictor:
    """Predicts next-epoch demand as a percentile of recent samples.

    Rate samples (bit/s) are fed in as they are observed (the SDN
    controller polls flow counters every 2 s); :meth:`predict` returns
    the chosen percentile over the last epoch's samples.

    Polls that produced *no* sample (a dropped OpenFlow stats reply)
    are recorded via :meth:`record_gap` — they occupy a slot in the
    observation window without contributing a value, so
    :attr:`gap_fraction` measures how blind the predictor currently is.
    A dropped poll is **not** a zero-demand sample: treating it as one
    is exactly the silent under-reservation this accounting prevents.

    Parameters
    ----------
    q:
        Percentile to use (default 90, per the paper).
    window:
        Number of most-recent polls forming "the last epoch".
    """

    def __init__(self, q: float = 90.0, window: int = 300):
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile q={q} outside [0, 100]")
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.q = q
        self.window = window
        self._samples: deque[float] = deque(maxlen=window)
        #: One entry per poll in the window: True = delivered, False = gap.
        self._polls: deque[bool] = deque(maxlen=window)
        self.total_gaps = 0

    def _push_poll(self, delivered: bool) -> None:
        """Slide the poll window by one entry.

        The window is over *polls*, not samples: when a full window
        slides past a delivered poll, that poll's sample leaves with it
        — otherwise a flow blinded by gaps would keep predicting from
        arbitrarily old data forever, and its sample count could never
        reach the "whole window lost" state the monitor's last-good
        fallback exists for.
        """
        if len(self._polls) == self.window and self._polls[0] and self._samples:
            self._samples.popleft()
        self._polls.append(delivered)

    def observe(self, rate_bps: float) -> None:
        """Record one observed data-rate sample."""
        if not math.isfinite(rate_bps):
            raise ConfigurationError(f"rate must be finite, got {rate_bps}")
        if rate_bps < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate_bps}")
        self._push_poll(True)
        self._samples.append(float(rate_bps))

    def observe_many(self, rates_bps) -> None:
        """Record a batch of observed data-rate samples."""
        arr = np.asarray(rates_bps, dtype=float).ravel()
        if not np.isfinite(arr).all():
            raise ConfigurationError("rates must be finite")
        if np.any(arr < 0):
            raise ConfigurationError("rates must be non-negative")
        for r in arr:
            self._push_poll(True)
            self._samples.append(float(r))

    def record_gap(self) -> None:
        """Record one poll whose stats reply never arrived."""
        self._push_poll(False)
        self.total_gaps += 1

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    @property
    def n_gaps(self) -> int:
        """Gap polls inside the current window."""
        return sum(1 for delivered in self._polls if not delivered)

    @property
    def gap_fraction(self) -> float:
        """Fraction of the window's polls that produced no sample."""
        if not self._polls:
            return 0.0
        return self.n_gaps / len(self._polls)

    def window_mean(self) -> float:
        """Mean of the delivered samples in the window — the *measured*
        load (no percentile headroom), used by admission replays.

        Raises like :meth:`predict` when nothing was delivered.
        """
        if not self._samples:
            raise ConfigurationError("window_mean() with no delivered samples")
        return float(np.mean(self._samples))

    def predict(self) -> float:
        """Predicted next-epoch demand (bit/s).

        Raises :class:`~repro.errors.ConfigurationError` when no sample
        is available — whether the flow was never polled or every poll
        in the window was dropped.  Consolidating on a guessed (or
        implicit-zero) demand is how flows end up on saturated links;
        callers must handle the miss explicitly
        (:meth:`~repro.control.monitor.TrafficMonitor.predicted_traffic`
        falls back to the last good epoch's prediction).
        """
        if not self._samples:
            raise ConfigurationError("predict() with no delivered samples")
        return percentile(list(self._samples), self.q)

    def reset(self) -> None:
        """Drop history (e.g. after a flow is rerouted)."""
        self._samples.clear()
        self._polls.clear()


@dataclass(frozen=True)
class EpochStats:
    """Aggregate per-epoch traffic statistics reported by the monitor."""

    epoch: int
    n_flows: int
    total_demand_bps: float
    peak_demand_bps: float

    def __post_init__(self) -> None:
        if self.epoch < 0 or self.n_flows < 0:
            raise ConfigurationError("epoch and n_flows must be non-negative")
        if self.total_demand_bps < 0 or self.peak_demand_bps < 0:
            raise ConfigurationError("demands must be non-negative")
        if self.peak_demand_bps > self.total_demand_bps and self.n_flows > 0:
            raise ConfigurationError("peak demand cannot exceed total demand")
