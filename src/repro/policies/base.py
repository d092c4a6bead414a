"""Governor interface: per-core dynamic frequency policies.

A *governor* decides the core's operating frequency at every request
arrival and departure instance (the decision points of Section III-B),
optionally at a periodic timer (TimeTrader's 5-second feedback loop),
and may reorder the waiting queue (EPRONS-Server re-orders by
deadline).

Governors never see a request's actual work — only the queue's
deadlines, the in-service request's progress, and the offline service
model.  That information boundary is what makes the comparison between
schemes fair.

Model-based governors (:class:`VPGovernor` subclasses) decide on the
:mod:`repro.simfast` tables: precomputed VP rows answer a decision for
the whole queue at all ladder frequencies at once.  Given a
:class:`QueueSnapshot`, :meth:`VPGovernor.select_frequency` asks them;
the DES (:func:`repro.simfast.run_multipoint_simulation`) asks the same
tables directly through
:meth:`~repro.simfast.tables.VPTableEngine.decide_point`, which walks
the ladder from the core's previous rung and returns the same rung
because the VP metric is monotone in frequency.  The original
per-request mixture evaluation they replace lives on as a test oracle
(``tests/oracles/server.py``); ``tests/test_simfast_equivalence.py``
holds the two to identical frequencies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..server.dvfs import FrequencyLadder
from ..server.service import ServiceModel
from ..simfast.tables import shared_table_engine

__all__ = ["QueueSnapshot", "Governor", "VPGovernor"]


@dataclass(frozen=True)
class QueueSnapshot:
    """What a governor is allowed to observe at a decision instant.

    Attributes
    ----------
    now:
        Current simulation time.
    in_service_completed_work:
        Reference work already retired on the in-service request, or
        ``None`` when the core is about to start the head of the queue.
    in_service_deadline:
        Governor-visible absolute deadline of the in-service request
        (``None`` when idle).
    queued_deadlines:
        Governor-visible absolute deadlines of waiting requests, in
        queue order (excluding the in-service one).
    actual_remaining_works:
        The *true* remaining reference work of the in-service request
        followed by the true works of the queued requests.  Real
        governors must never read this — request sizes are unknown at
        schedule time; it exists so a clairvoyant oracle baseline can
        establish the energy-saving lower bound (see
        :class:`~repro.policies.oracle.OracleGovernor`).
    """

    now: float
    in_service_completed_work: float | None
    in_service_deadline: float | None
    queued_deadlines: tuple[float, ...]
    actual_remaining_works: tuple[float, ...] = ()

    @property
    def n_requests(self) -> int:
        """Total requests at the core (in service + waiting)."""
        return (0 if self.in_service_deadline is None else 1) + len(self.queued_deadlines)


class Governor(ABC):
    """Base class for DVFS policies.

    Class attributes configure how the simulator integrates a policy:

    * ``network_aware`` — whether per-request network slack is folded
      into the deadlines this governor sees;
    * ``reorders_queue`` — whether the core keeps the waiting queue in
      earliest-deadline-first order for this governor;
    * ``timer_period_s`` — if not ``None``, :meth:`on_timer` fires at
      this period (feedback-based policies).
    """

    name: str = "governor"
    network_aware: bool = False
    reorders_queue: bool = False
    timer_period_s: float | None = None

    @abstractmethod
    def select_frequency(self, snapshot: QueueSnapshot) -> float:
        """Frequency (Hz) the core should run at, given the queue state."""

    def on_complete(self, total_latency_s: float, deadline_met: bool, now: float) -> None:
        """Hook: a request finished (feedback policies observe tails)."""

    def on_timer(self, now: float) -> None:
        """Hook: periodic timer fired (``timer_period_s`` is set)."""


class VPGovernor(Governor):
    """Shared machinery for violation-probability-model governors
    (Rubik, Rubik+, EPRONS-Server and its ablations).

    Holds the service model, the frequency ladder, the SLA's target
    violation probability (5 % for a 95th-percentile SLA) and the
    shared VP tables.  Subclasses configure the policy through class
    attributes only:

    * ``vp_mode`` — ``"max"`` constrains the limiting request (Rubik),
      ``"mean"`` the queue average (EPRONS-Server);
    * the usual ``network_aware`` / ``reorders_queue`` flags.

    A decision falls back to ``f_max`` when even the top rung cannot
    meet the target — run flat out and let the tail absorb the burst.
    """

    #: ``"max"`` (limiting request) or ``"mean"`` (queue average).
    vp_mode: str = "max"

    def __init__(
        self,
        service_model: ServiceModel,
        ladder: FrequencyLadder,
        target_vp: float = 0.05,
    ):
        if not 0.0 < target_vp < 1.0:
            raise ConfigurationError(f"target VP must lie in (0, 1), got {target_vp}")
        self.service_model = service_model
        self.ladder = ladder
        self.target_vp = target_vp
        self._tables = shared_table_engine(service_model, ladder)
        #: Decision instants served; benchmarks read it.
        self.n_decisions = 0

    def work_budget(self, deadline: float, now: float, frequency_hz: float) -> float:
        """ω(D) of Eq. (1): reference work completable before ``deadline``."""
        return self.service_model.frequency_model.work_budget(deadline - now, frequency_hz)

    def select_frequency(self, snapshot: QueueSnapshot) -> float:
        if snapshot.n_requests == 0:
            return self.ladder.f_min
        self.n_decisions += 1
        if snapshot.in_service_deadline is not None:
            offset = self._tables.head_offset(snapshot.in_service_completed_work or 0.0)
            deltas = np.empty(1 + len(snapshot.queued_deadlines))
            deltas[0] = snapshot.in_service_deadline
            deltas[1:] = snapshot.queued_deadlines
        else:
            offset = None
            deltas = np.asarray(snapshot.queued_deadlines, dtype=float)
        deltas -= snapshot.now
        chosen = self._tables.decide(deltas, offset, self.vp_mode, self.target_vp)
        return chosen if chosen is not None else self.ladder.f_max
