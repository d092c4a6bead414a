"""Mixture-evaluation reference of the VP governors' decision.

Production VP governors decide on the tabulated :mod:`repro.simfast`
engine.  The code here is the original per-request evaluation of
Section III-B they were derived from, kept only as the executable
specification: frequency decisions, and therefore every simulation
result, must be bit-identical to production
(``tests/test_simfast_equivalence.py`` enforces it).

* :class:`EquivalentQueue` — at a decision instant, the *equivalent
  request* of every request in the system (the convolution of the
  in-service request's conditional remaining work with the work of
  everything queued ahead), each evaluated by its CCDF at the
  frequency-dependent work budget ω(D).  Rather than convolving the
  conditional head with ``base^k`` per decision, the CCDF is a
  mixture::

      P[R + S_k > x] = sum_i  P[R = v_i] * CCDF_{S_k}(x - v_i)

  with ``S_k`` memoized in a
  :class:`~repro.server.distributions.ConvolutionCache`;
* :func:`reference_governor` — any :class:`~repro.policies.base.VPGovernor`
  class re-wired to decide through :class:`EquivalentQueue` snapshots,
  binary-searching the ladder.

A reference governor only overrides the snapshot decision, so oracle
runs must go through the scalar
:func:`~repro.sim.runner.run_server_simulation`: the lockstep engine
classifies any ``VPGovernor`` subclass onto its tables and would never
call the mixture (``tests/test_simfast_equivalence.py`` guards this).
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import QueueSnapshot, VPGovernor
from repro.server.distributions import ConvolutionCache, WorkDistribution
from repro.server.service import ServiceModel

__all__ = ["EquivalentQueue", "reference_governor"]


def reference_governor(governor_cls: type[VPGovernor]) -> type[VPGovernor]:
    """``governor_cls`` deciding through the snapshot mixture evaluation.

    The returned subclass keeps the policy's name and flags, so a
    simulation under it reports the same governor.
    """

    class ReferenceGovernor(governor_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._cache = ConvolutionCache(self.service_model.distribution)

        def select_frequency(self, snapshot: QueueSnapshot) -> float:
            if snapshot.n_requests == 0:
                return self.ladder.f_min
            self.n_decisions += 1
            eq = EquivalentQueue(snapshot, self.service_model, self._cache)
            metric = eq.max_vp if self.vp_mode == "max" else eq.average_vp
            chosen = self.ladder.lowest_satisfying(lambda f: metric(f) <= self.target_vp)
            return chosen if chosen is not None else self.ladder.f_max

    ReferenceGovernor.__name__ = ReferenceGovernor.__qualname__ = (
        f"Reference{governor_cls.__name__}"
    )
    return ReferenceGovernor


class EquivalentQueue:
    """Equivalent distributions + deadlines for one queue snapshot.

    Built once per decision instant; :meth:`violation_probabilities`
    can then be evaluated cheaply at several candidate frequencies (the
    governors binary-search the ladder).
    """

    def __init__(
        self,
        snapshot: QueueSnapshot,
        service_model: ServiceModel,
        cache: ConvolutionCache,
    ):
        self.snapshot = snapshot
        self.service_model = service_model
        self._cache = cache
        base = service_model.distribution

        deadlines: list[float] = []
        ks: list[int] = []
        if snapshot.in_service_deadline is not None:
            head = base.conditional_remaining(snapshot.in_service_completed_work or 0.0)
            deadlines.append(snapshot.in_service_deadline)
            ks.append(0)
            k0 = 1
        else:
            head = WorkDistribution.point_mass(base.dx, 0.0)
            k0 = 1
        for offset, deadline in enumerate(snapshot.queued_deadlines):
            deadlines.append(deadline)
            ks.append(k0 + offset)
        self.head = head
        self._head_values = head.values
        self.ks = ks
        self.deadlines = np.asarray(deadlines, dtype=float)

    def __len__(self) -> int:
        return len(self.ks)

    def equivalent_distribution(self, index: int) -> WorkDistribution:
        """The explicit equivalent distribution of the ``index``-th
        request (used by tests/plots; governors use the mixture form)."""
        return self._cache.equivalent(self.head, self.ks[index])

    def violation_probabilities(self, frequency_hz: float) -> np.ndarray:
        """Per-request deadline-violation probability at ``frequency_hz``.

        ``VP_i = CCDF_{E_i}( (D_i - now) / speed_factor(f) )`` — Eq. (1)
        combined with the equivalent distribution (Fig. 5's lookup).
        """
        speed = self.service_model.frequency_model.speed_factor(frequency_hz)
        budgets = (self.deadlines - self.snapshot.now) / speed
        out = np.empty(len(self.ks))
        for i, (k, budget) in enumerate(zip(self.ks, budgets)):
            if k == 0:
                out[i] = self.head.ccdf(budget)
            else:
                tail = self._cache.power(k).ccdf_many(budget - self._head_values)
                out[i] = float(np.dot(self.head.pmf, tail))
        return out

    def max_vp(self, frequency_hz: float) -> float:
        """The limiting request's VP (what Rubik constrains)."""
        vps = self.violation_probabilities(frequency_hz)
        return float(vps.max()) if vps.size else 0.0

    def average_vp(self, frequency_hz: float) -> float:
        """The average VP over queued requests (what EPRONS-Server
        constrains — Section III-A's key relaxation)."""
        vps = self.violation_probabilities(frequency_hz)
        return float(vps.mean()) if vps.size else 0.0
