"""Telemetry-degradation profiles: how imperfect the controller's view is.

The paper's POX controller "fetches flow statistics and link
utilization every 2 s with an openflow message" — and a real OpenFlow
control plane loses stats replies, reads stale counters, and receives
late batches.  A :class:`TelemetryProfile` parameterizes that
imperfection per switch poll:

* **loss** — the stats reply never arrives (the poll is a gap);
* **staleness** — the reply arrives but repeats the previous epoch's
  counters (a switch answering from an un-refreshed flow table);
* **noise** — counter values carry bounded multiplicative error
  (sampling skew between the 2-s windows);
* **delay** — the reply arrives one epoch late as a batch (congested
  control channel), so the optimizer sees it only after the fact.

Profiles are plain frozen data — picklable and seed-deterministic,
mirroring :class:`~repro.faults.FaultSchedule`'s contract — so
degraded-telemetry scenarios travel through the sweep executor and
hash stably into its result cache.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["TelemetryProfile", "PERFECT_TELEMETRY"]


@functools.lru_cache(maxsize=4096)
def _stable_token(name: str) -> int:
    """A process-independent 32-bit token for a switch name (PYTHONHASHSEED
    must not leak into replay determinism, so ``hash()`` is out).
    Memoized: a collector asks again for every switch each epoch."""
    return int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)


@dataclass(frozen=True)
class TelemetryProfile:
    """Per-poll degradation probabilities for one scenario.

    The four probabilities partition each poll outcome:
    ``loss + stale + delay <= 1`` and the remainder is a clean delivery
    (with noise applied).  ``noise_frac`` bounds the multiplicative
    counter error: an observed rate is ``true * (1 + U(-n, +n))``.
    """

    stats_loss_prob: float = 0.0
    stale_prob: float = 0.0
    delay_prob: float = 0.0
    noise_frac: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Seeds are 32-bit: a float, bool or out-of-range seed would
        # alias a valid seed's stream while hashing as a distinct profile.
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, (int, np.integer))
            or not 0 <= self.seed < 2**32
        ):
            raise ConfigurationError(
                f"seed must be an integer in [0, 2**32), got {self.seed!r}"
            )
        for name in ("stats_loss_prob", "stale_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} outside [0, 1]")
        total = self.stats_loss_prob + self.stale_prob + self.delay_prob
        if total > 1.0 + 1e-12:
            raise ConfigurationError(
                f"loss + stale + delay = {total} exceeds 1 (outcomes must partition)"
            )
        if not 0.0 <= self.noise_frac < 1.0:
            raise ConfigurationError(
                f"noise_frac={self.noise_frac} outside [0, 1) — a counter cannot "
                "lose more than its whole value"
            )

    @property
    def is_perfect(self) -> bool:
        """True when every poll is delivered clean — degradation off."""
        return (
            self.stats_loss_prob == 0.0
            and self.stale_prob == 0.0
            and self.delay_prob == 0.0
            and self.noise_frac == 0.0
        )

    def rng_for(self, epoch: int, switch: str) -> np.random.Generator:
        """The per-(epoch, switch) generator degradation draws come from.

        Keyed by content — ``(seed, epoch, switch-name digest)`` — so
        replay never depends on dict iteration order, topology object
        identity, or the set of other switches polled.
        """
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        ss = np.random.SeedSequence(
            entropy=[int(self.seed), epoch, _stable_token(switch)]
        )
        return np.random.default_rng(ss)


#: The no-degradation profile: every poll delivered clean.
PERFECT_TELEMETRY = TelemetryProfile()
