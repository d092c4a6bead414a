"""Tabulated violation-probability engine (the server-side `netfast`).

The mixture evaluation of Section III-B (kept as the test oracle in
``tests/oracles/server.py``) computes, at every decision instant and
every ladder rung the binary search probes, a mixture CCDF per queued
request::

    VP_i(f) = sum_j  P[head = j*dx] * CCDF_{S_k}( budget_i(f) - j*dx )

All CCDFs in play are step functions on the shared work grid, so the
whole mixture collapses to a *single table lookup*: with
``m = floor(budget / dx + 1e-9)`` (exactly the bin index the mixture's
CCDF evaluation computes),

    VP_i(f) = T[head_offset, k][m]

where ``T[o, k]`` is the CCDF-at-bin table of the equivalent
distribution ``head_o ⊗ S_k`` — a pure function of the service model.
:class:`VPTableEngine` precomputes those tables lazily per
``(head offset, fold count k)`` and answers a governor decision for the
*entire queue at all candidate frequencies at once* as one fancy-index
gather plus a reduction, replacing the per-request, per-rung mixture
loop.  The per-core DES asks :meth:`VPTableEngine.decide_point`
instead: a pure-Python walk along the ladder from the core's previous
rung, reading table values through memoryviews.  The VP metric never
rises with the rung, so the walk returns the same rung as the
vectorized decision after about two rung evaluations.

Tables are built once per process and shared across governors, cores
and same-process sweep tasks through :func:`shared_table_engine`
(mirroring ``netfast``'s compiled topology indexes).  Total table
memory is bounded; least-recently-used head offsets are evicted and
rebuilt on demand (rebuilds are deterministic, so eviction never
changes decisions).
"""

from __future__ import annotations

import hashlib
from math import floor as _floor

import numpy as np

from ..errors import ConfigurationError
from ..server.distributions import (
    DEFAULT_MAX_BINS,
    ConvolutionCache,
    WorkDistribution,
    fftconvolve,
)
from ..server.dvfs import FrequencyLadder
from ..server.service import ServiceModel

__all__ = [
    "VPTableEngine",
    "shared_table_engine",
    "clear_shared_engines",
]

#: Decision modes: the limiting request (Rubik) or the queue average
#: (EPRONS-Server).
VP_MODES = ("max", "mean")

#: Soft bound on total table bytes per engine; least-recently-used head
#: offsets are evicted past it.
DEFAULT_MAX_TABLE_BYTES = 192 * 1024 * 1024


class _HeadStack:
    """Stacked VP lookup rows for one head distribution.

    Row ``k`` tabulates the violation probability of the ``k``-th
    equivalent request (``head ⊗ S_k``) against the work-budget bin:
    ``row[0] = 1.0`` covers negative budgets, ``row[m + 1]`` is the VP
    for budgets in bin ``m``, and entries beyond a row's natural
    support are exactly ``0.0`` — the same padded-CCDF layout as
    :class:`~repro.server.distributions.WorkDistribution`, so clipping
    the gathered indices reproduces ``ccdf_many`` bin for bin.
    """

    __slots__ = ("head", "rows", "tables", "views")

    def __init__(self, head: WorkDistribution | None):
        self.head = head
        self.rows: list[np.ndarray] = []
        self.tables = np.zeros((0, 1))
        self.views: list[memoryview] = []

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return self.tables.shape[1]

    @property
    def nbytes(self) -> int:
        return self.tables.nbytes

    def ensure(self, k_max: int, powers: ConvolutionCache) -> None:
        """Extend the stack to cover fold counts ``0..k_max``."""
        if k_max < self.n_rows:
            return
        for k in range(self.n_rows, k_max + 1):
            self.rows.append(self._build_row(k, powers))
        width = max(r.size for r in self.rows)
        tables = np.zeros((len(self.rows), width))
        for i, row in enumerate(self.rows):
            tables[i, : row.size] = row
        self.tables = tables
        # Rebind rows to views into the padded table: keeping the owned
        # build arrays alive would hold every row twice, so the engine's
        # byte accounting (``nbytes`` counts only ``tables``) would see
        # half the resident footprint and the LRU cap would overshoot.
        self.rows = [tables[i, : row.size] for i, row in enumerate(self.rows)]
        # One memoryview per padded row: a scalar read through one costs
        # about half of ``ndarray.item`` (decide_point's inner loop).
        self.views = [memoryview(row) for row in tables]

    def _build_row(self, k: int, powers: ConvolutionCache) -> np.ndarray:
        if self.head is None:
            # Idle-head stack: the equivalent of the k-th queued request
            # is S_k itself; reuse its padded CCDF table verbatim (the
            # reference mixture degenerates to the same single lookup).
            if k == 0:
                return np.array([1.0, 0.0])
            return powers.power(k)._ccdf_table.copy()
        if k == 0:
            return self.head._ccdf_table.copy()
        # row[m + 1] = sum_j head.pmf[j] * ccdf_{S_k}((m - j) * dx),
        # with the below-grid region contributing 1.0 per the reference
        # CCDF clipping.  That is a discrete convolution of the head
        # PMF with the padded CCDF extended by leading ones.
        h = self.head.pmf
        ccdf = powers.power(k)._ccdf_table  # [1.0, P(S>0), ..., 0.0]
        extended = np.concatenate([np.ones(h.size - 1), ccdf[1:]]) if h.size > 1 else ccdf[1:]
        content = fftconvolve(h, extended)[h.size - 1 : h.size - 1 + h.size + ccdf.size - 2]
        np.clip(content, 0.0, 1.0, out=content)
        # CCDF tables are exactly non-increasing; enforce it so FFT
        # noise can never produce a locally non-monotone row.
        np.minimum.accumulate(content, out=content)
        content[-1] = 0.0  # provably zero: every mixture term is past its grid
        row = np.empty(content.size + 1)
        row[0] = 1.0
        row[1:] = content
        return row


class VPTableEngine:
    """Shared, bounded store of tabulated VP decisions for one
    (service model, frequency ladder) pair."""

    def __init__(
        self,
        service_model: ServiceModel,
        ladder: FrequencyLadder,
        max_bins: int = DEFAULT_MAX_BINS,
        max_table_bytes: int = DEFAULT_MAX_TABLE_BYTES,
    ):
        self.service_model = service_model
        self.ladder = ladder
        self.base = service_model.distribution
        self.dx = self.base.dx
        self.max_table_bytes = max_table_bytes
        self.powers = ConvolutionCache(self.base, max_bins=max_bins)
        fm = service_model.frequency_model
        # Scalar speed_factor per rung — the exact floats the reference
        # binary search divides by.
        self.frequencies = tuple(float(f) for f in ladder)
        self.speeds = np.array([fm.speed_factor(f) for f in self.frequencies])
        self.n_freqs = len(self.frequencies)
        self._speed_list = [float(s) for s in self.speeds]
        # Insertion-ordered LRU of head stacks, keyed by conditioning
        # offset (None = no in-service request).
        self._stacks: dict[int | None, _HeadStack] = {}
        self._total_bytes = 0
        self.n_rows_built = 0

    # -- table access -------------------------------------------------------------

    def head_offset(self, completed_work: float) -> int:
        """Grid offset of the in-service head (shared quantization)."""
        return self.base.grid_offset(completed_work)

    def stack(self, offset: int | None, k_max: int) -> _HeadStack:
        """The (lazily built) stack for a head offset, covering folds
        ``0..k_max``; refreshes LRU order and enforces the byte cap."""
        stacks = self._stacks
        stack = stacks.get(offset)
        if stack is not None and k_max < stack.n_rows:
            # Hot path (no growth needed): refresh LRU order and go.
            del stacks[offset]
            stacks[offset] = stack
            return stack
        if stack is None:
            head = None if offset is None else self.base.conditional_remaining_at(offset)
            stack = _HeadStack(head)
        else:
            del stacks[offset]
        before_rows, before_bytes = stack.n_rows, stack.nbytes
        stack.ensure(k_max, self.powers)
        self.n_rows_built += stack.n_rows - before_rows
        self._total_bytes += stack.nbytes - before_bytes
        stacks[offset] = stack
        if self._total_bytes > self.max_table_bytes:
            self._evict(keep=offset)
        return stack

    def table_bytes(self) -> int:
        return self._total_bytes

    def _evict(self, keep: int | None) -> None:
        for key in list(self._stacks):
            if self._total_bytes <= self.max_table_bytes:
                return
            if key == keep or key is keep:
                continue
            self._total_bytes -= self._stacks.pop(key).nbytes

    # -- decisions ----------------------------------------------------------------

    def violation_probabilities(
        self, deltas: np.ndarray, offset: int | None
    ) -> np.ndarray:
        """VP of every request at every ladder rung, shape ``(n, F)``.

        ``deltas`` holds ``deadline - now`` per request — the in-service
        head first when ``offset`` is not ``None``, then the queued
        requests in queue order (fold counts are implied by position,
        exactly the equivalent-queue layout of Section III-B).
        """
        n = deltas.size
        if n == 0:
            raise ConfigurationError("a VP lookup needs at least one request")
        if offset is None:
            k_max = n  # queued requests fold 1..n
            rows = np.arange(1, n + 1)
        else:
            k_max = n - 1  # head is fold 0
            rows = np.arange(n)
        stack = self.stack(offset, k_max)
        # Budget bins for every request at every rung in one shot; the
        # per-element ops match the mixture evaluation's scalar
        # arithmetic ((D - now) / speed, then the ccdf_many
        # floor-and-clip).
        budgets = deltas[:, None] / self.speeds[None, :]
        m = np.floor(budgets / self.dx + 1e-9).astype(np.int64)
        np.minimum(m, stack.width - 2, out=m)
        np.maximum(m, -1, out=m)
        vp = stack.tables[rows[:, None], m + 1]
        if offset is not None and deltas[0] < 0.0:
            # The head CCDF lookup (WorkDistribution.ccdf) early-
            # returns 1.0 for strictly negative budgets.
            vp[0, :] = 1.0
        return vp

    def decide(
        self,
        deltas: np.ndarray,
        offset: int | None,
        mode: str,
        target_vp: float,
    ) -> float | None:
        """Lowest ladder frequency whose VP metric meets ``target_vp``.

        ``deltas`` and ``offset`` are laid out as for
        :meth:`violation_probabilities`.  Returns ``None`` when even
        ``f_max`` fails, mirroring
        :meth:`FrequencyLadder.lowest_satisfying`.
        """
        rung = self._lowest_rung(deltas, offset, mode, target_vp)
        return None if rung is None else self.frequencies[rung]

    def _lowest_rung(
        self,
        deltas: np.ndarray,
        offset: int | None,
        mode: str,
        target_vp: float,
    ) -> int | None:
        """:meth:`decide` as a rung index (``None`` when ``f_max`` fails)."""
        vp = self.violation_probabilities(deltas, offset)
        metric = vp.max(axis=0) if mode == "max" else vp.mean(axis=0)
        satisfied = metric <= target_vp
        if not satisfied[-1]:
            return None
        return int(np.argmax(satisfied))

    def decide_point(
        self,
        deltas: list,
        offset: int | None,
        mode: str,
        target_vp: float,
        start: int,
    ) -> int:
        """Scalar :meth:`decide` for one short queue, as a rung index.

        ``deltas`` is a list of Python floats (same layout as
        :meth:`decide`); returns the rung of the chosen frequency in
        :attr:`frequencies`, with the ``None -> f_max`` fallback applied
        (the top rung).  ``start`` is the rung the search begins at —
        the core's previous choice, which is usually the answer or next
        to it.

        The VP metric never rises with the rung on a head stack: rows
        are non-increasing, speed factors fall along the ladder, the
        bin ``floor(d / s / dx + 1e-9)`` of a delta ``d >= 0`` never
        falls as ``s`` does (IEEE division and addition are monotone),
        and float sums and maxima are monotone in each term.  So
        walking down from a satisfied ``start`` to the last satisfied
        rung, or up from a failed one to the first satisfied rung (the
        top if none below it is), returns exactly what :meth:`decide`
        returns.  Three inputs break that order or leave the scalar
        range and go to :meth:`decide` itself: an idle head (its rows
        are convolution CCDFs that can dip below 0.0 before their final
        0.0), a strictly negative queued delta (a tiny negative budget
        reads bin 0 at low rungs and bin -1 at high ones), and a queue
        of 8 or more.  Below numpy's pairwise-sum block (8 elements)
        the vectorized reductions accumulate strictly left to right,
        the order this loop uses, so each float matches :meth:`decide`
        bit for bit.
        """
        n = len(deltas)
        if n == 0:
            raise ConfigurationError("decide_point() needs at least one request")
        # The whole-list min() first: most queues have no negative delta.
        negative_queued = min(deltas) < 0.0 and min(deltas[1:], default=0.0) < 0.0
        if offset is None or n >= 8 or negative_queued:
            rung = self._lowest_rung(np.array(deltas), offset, mode, target_vp)
            return self.n_freqs - 1 if rung is None else rung
        views = self.stack(offset, n - 1).views
        last = len(views[0]) - 1  # the padded rows' final 0.0
        dx = self.dx
        speeds = self._speed_list
        is_mean = mode != "max"
        # A strictly negative head delta reads VP 1.0 at every rung
        # (the reference CCDF's early return); fold it into the
        # accumulator seed and walk the remaining elements.  Seeding
        # max with 0.0 is exact too: every head-stack value is in
        # [0, 1].  Every walked delta is >= 0, so its bin is >= 0 and
        # only the upper clip applies.
        if deltas[0] < 0.0:
            seed, deltas, views = 1.0, deltas[1:], views[1:]
        else:
            seed = 0.0
        top = self.n_freqs - 1
        rung = start
        down = None  # walk direction, fixed by the metric at ``start``
        while True:
            s = speeds[rung]
            acc = seed
            if is_mean:
                for d, row in zip(deltas, views):
                    m = _floor(d / s / dx + 1e-9) + 1
                    acc += row[m if m < last else last]
                acc /= n
            else:
                for d, row in zip(deltas, views):
                    m = _floor(d / s / dx + 1e-9) + 1
                    v = row[m if m < last else last]
                    if v > acc:
                        acc = v
            ok = acc <= target_vp
            if down is None:
                down = ok
            if down:
                if not ok:
                    return rung + 1
                if rung == 0:
                    return 0
                rung -= 1
            else:
                if ok:
                    return rung
                rung += 1
                if rung >= top:
                    return top


# -- process-level sharing ------------------------------------------------------

_SHARED: dict[str, VPTableEngine] = {}
_MAX_SHARED = 8


def _fingerprint(service_model: ServiceModel, ladder: FrequencyLadder) -> str:
    """Content key: same grid + PMF + frequency model + ladder ⇒ same
    tables, regardless of object identity (sweep tasks rebuild their
    service models from specs)."""
    base = service_model.distribution
    fm = service_model.frequency_model
    h = hashlib.sha256()
    h.update(np.float64(base.dx).tobytes())
    h.update(base.pmf.tobytes())
    h.update(np.float64(fm.f_ref_hz).tobytes())
    h.update(np.float64(fm.independent_fraction).tobytes())
    h.update(ladder.frequencies.tobytes())
    return h.hexdigest()


def shared_table_engine(
    service_model: ServiceModel, ladder: FrequencyLadder
) -> VPTableEngine:
    """The process-wide engine for a (service model, ladder) pair.

    Governors are per-core and sweep tasks rebuild their models per
    spec; routing them all through this registry means the (expensive,
    content-identical) tables are built once per worker process and
    stay warm across every simulation in a sweep.
    """
    key = _fingerprint(service_model, ladder)
    engine = _SHARED.pop(key, None)
    if engine is None:
        engine = VPTableEngine(service_model, ladder)
        while len(_SHARED) >= _MAX_SHARED:
            del _SHARED[next(iter(_SHARED))]
    _SHARED[key] = engine
    return engine


def clear_shared_engines() -> None:
    """Drop all process-level table engines (tests / memory pressure)."""
    _SHARED.clear()
