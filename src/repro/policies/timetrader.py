"""TimeTrader baseline [7] — coarse feedback-driven DVFS.

TimeTrader (MICRO'15) borrows network slack for computation but adjusts
the CPU frequency with a simple feedback controller "every 5 seconds"
(Section V-B2), based on the observed tail latency versus the SLA.  It
is cross-layer (network aware) but coarse-grained: between updates the
frequency is fixed, so bursty arrivals either violate deadlines (if set
too low) or waste energy (if set too high) — exactly why the paper
finds it saves less than per-request schemes.

Controller: an additive-increase / additive-decrease rule on the
ladder, driven by the 95th-percentile latency of requests completed in
the last window:

* tail above the guard band → step **up** two ladder steps (latency is
  the hard constraint; recover fast);
* tail below the lower band → step **down** one step (harvest slack
  slowly).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..stats import percentile
from .base import Governor, QueueSnapshot

__all__ = ["TimeTraderGovernor"]


class TimeTraderGovernor(Governor):
    """Windowed tail-latency feedback on the DVFS ladder."""

    name = "timetrader"
    network_aware = True
    reorders_queue = False
    timer_period_s = 5.0

    def __init__(
        self,
        ladder,
        latency_constraint_s: float,
        tail_quantile: float = 95.0,
        upper_band: float = 0.95,
        lower_band: float = 0.80,
    ):
        # Checked here, not at the first timer tick deep in a run; the
        # negated comparisons also reject NaN.
        if not (math.isfinite(latency_constraint_s) and latency_constraint_s > 0):
            raise ConfigurationError(
                f"latency constraint must be finite and positive, got {latency_constraint_s}"
            )
        if not 0.0 < tail_quantile <= 100.0:
            raise ConfigurationError(
                f"tail quantile must lie in (0, 100], got {tail_quantile}"
            )
        if not 0.0 < lower_band < upper_band <= 1.0:
            raise ConfigurationError(
                f"bands must satisfy 0 < lower < upper <= 1, got "
                f"({lower_band}, {upper_band})"
            )
        self.ladder = ladder
        self.latency_constraint_s = latency_constraint_s
        self.tail_quantile = tail_quantile
        self.upper_band = upper_band
        self.lower_band = lower_band
        self._frequency = ladder.f_max
        self._window: list[float] = []

    @property
    def current_frequency(self) -> float:
        return self._frequency

    def select_frequency(self, snapshot: QueueSnapshot) -> float:
        return self._frequency

    def on_complete(self, total_latency_s: float, deadline_met: bool, now: float) -> None:
        self._window.append(total_latency_s)

    def on_timer(self, now: float) -> None:
        if not self._window:
            return
        tail = percentile(np.asarray(self._window), self.tail_quantile)
        if tail > self.upper_band * self.latency_constraint_s:
            # Latency is the hard constraint: recover fast.
            self._frequency = self.ladder.step_up(self._frequency, steps=2)
        elif tail < self.lower_band * self.latency_constraint_s:
            # Proportional jump toward the frequency whose predicted
            # tail would sit below the guard band (latency ~ 1/f for
            # the CPU-bound part), but never descend more than two
            # ladder steps per window — window tails are noisy and an
            # overshoot costs SLA violations for a whole 5 s period.
            target = self._frequency * tail / (0.9 * self.latency_constraint_s)
            floor = self.ladder.step_down(self._frequency, steps=2)
            self._frequency = self.ladder.clamp(max(target, floor))
        self._window.clear()
