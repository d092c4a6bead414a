"""Incremental equivalent-queue state for tabulated governors.

The mixture evaluation's ``EquivalentQueue`` (the test oracle in
``tests/oracles/server.py``) is rebuilt from a
:class:`~repro.policies.base.QueueSnapshot` at every decision instant
— the core materialises deadline tuples, the governor re-derives fold
counts, and both are discarded one decision later.

:class:`IncrementalEquivalentQueue` keeps that state alive between
decisions: a growable float64 deadline array mirroring the core's
waiting queue (FIFO append or EDF sorted insert) plus the in-service
request's deadline, updated on *single* enqueue/dequeue transitions.
Fold counts never need storing — they are positional (the ``i``-th
waiting request always folds ``i + 1`` service draws, shifting down by
exactly one on service start), so the mirror is just the deadline
vector the table engine consumes.

Invariants (enforced by the core simulator's update discipline):

* the queued segment holds ``queue[i].governor_deadline`` in queue
  order — identical to the tuple the reference snapshot would build;
* for EDF governors the segment is non-decreasing, and ties keep
  arrival order (``searchsorted side="right"`` matches the core's
  stable ``(deadline, rid)`` sort because rids are assigned in arrival
  order);
* ``in_service_deadline`` is ``None`` exactly when the core is idle.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = ["IncrementalEquivalentQueue"]

_INITIAL_CAPACITY = 64


class IncrementalEquivalentQueue:
    """Deadline mirror of one core's queue, cheap to update and read."""

    __slots__ = ("_deadlines", "_start", "_end", "in_service_deadline")

    def __init__(self) -> None:
        self._deadlines = np.empty(_INITIAL_CAPACITY)
        self._start = 0
        self._end = 0
        self.in_service_deadline: float | None = None

    # -- state ---------------------------------------------------------------------

    @property
    def n_queued(self) -> int:
        return self._end - self._start

    @property
    def n_in_system(self) -> int:
        return self.n_queued + (0 if self.in_service_deadline is None else 1)

    def queued_deadlines(self) -> np.ndarray:
        """The waiting deadlines in queue order (live view — copy to keep)."""
        return self._deadlines[self._start : self._end]

    def clear(self) -> None:
        self._start = 0
        self._end = 0
        self.in_service_deadline = None

    # -- transitions ---------------------------------------------------------------

    def enqueue(self, deadline: float) -> None:
        """FIFO arrival: append at the tail."""
        if self._end == self._deadlines.size:
            self._compact_or_grow()
        self._deadlines[self._end] = deadline
        self._end += 1

    def enqueue_sorted(self, deadline: float) -> None:
        """EDF arrival: insert keeping deadlines non-decreasing, after
        any equal deadlines (ties stay in arrival order)."""
        if self._end == self._deadlines.size:
            self._compact_or_grow()
        d = self._deadlines
        pos = self._start + int(
            np.searchsorted(d[self._start : self._end], deadline, side="right")
        )
        d[pos + 1 : self._end + 1] = d[pos : self._end]
        d[pos] = deadline
        self._end += 1

    def start_service(self) -> None:
        """The queue head moves into service."""
        if self.in_service_deadline is not None:
            raise SimulationError("mirror started service while busy")
        if self.n_queued == 0:
            raise SimulationError("mirror started service with an empty queue")
        self.in_service_deadline = float(self._deadlines[self._start])
        self._start += 1

    def end_service(self) -> None:
        """The in-service request departed."""
        if self.in_service_deadline is None:
            raise SimulationError("mirror ended service while idle")
        self.in_service_deadline = None
        if self._start == self._end:
            self._start = 0
            self._end = 0

    # -- reads ---------------------------------------------------------------------

    def deltas(self, now: float) -> np.ndarray:
        """``deadline - now`` for the in-service request (first, when
        present) and every waiting request — the exact vector
        :meth:`VPTableEngine.decide` expects."""
        n_queued = self._end - self._start
        if self.in_service_deadline is None:
            out = np.empty(n_queued)
            np.subtract(self._deadlines[self._start : self._end], now, out=out)
            return out
        out = np.empty(1 + n_queued)
        out[0] = self.in_service_deadline - now
        np.subtract(self._deadlines[self._start : self._end], now, out=out[1:])
        return out

    # -- internals -----------------------------------------------------------------

    def _compact_or_grow(self) -> None:
        n = self._end - self._start
        if self._start >= n:
            # At least half the buffer is dead space: slide left.
            self._deadlines[:n] = self._deadlines[self._start : self._end]
        else:
            grown = np.empty(max(2 * self._deadlines.size, _INITIAL_CAPACITY))
            grown[:n] = self._deadlines[self._start : self._end]
            self._deadlines = grown
        self._start = 0
        self._end = n
