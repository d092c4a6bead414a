"""Core sleep-state model (PowerNap/DynSleep-family baselines).

The paper's related work splits server energy proportionality into two
families: *performance scaling* (DVFS — Rubik, EPRONS-Server) and
*sleeping* (PowerNap [9], DynSleep [11], SleepScale [12]), which race
requests at full speed and drop the core into a deep sleep state during
the resulting idle periods.  This model captures the sleep side:

* ``entry_latency_s`` — time after going idle before the deep state is
  reached (idle power is drawn during entry);
* ``sleep_watts`` — deep-state draw (PowerNap targets near zero);
* ``wake_latency_s`` — time to resume service after an arrival hits a
  sleeping core (added to that request's response time — the latency
  cost that makes sleeping risky for tail SLAs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["SleepStateModel", "POWERNAP_SLEEP"]


@dataclass(frozen=True)
class SleepStateModel:
    """Deep-sleep parameters for one core."""

    sleep_watts: float = 0.1
    entry_latency_s: float = 1e-3
    wake_latency_s: float = 1e-3

    def __post_init__(self) -> None:
        # Negated, so NaN is rejected too; an infinite entry latency
        # would silently never sleep.
        for name in ("sleep_watts", "entry_latency_s", "wake_latency_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value}"
                )


#: PowerNap-style deep sleep: ~0.1 W residual draw, 1 ms transitions
#: (the paper's [9] reports millisecond-scale full-system nap states).
POWERNAP_SLEEP = SleepStateModel()
