"""Lockstep multi-point DES: one event loop, a whole constraint grid.

Grid points of a server sweep (constraint × governor at one load) share
the workload trace — the same Poisson arrivals, service draws, network
latencies and dispatch decisions — and differ only in deadline budgets
and DVFS policy.  Replaying a separate event loop per point therefore
re-executes identical event sequences that diverge only where a
governor's *decision* differs.

``run_multipoint_simulation`` exploits that: it extracts the shared
trace once (replicating :func:`~repro.sim.runner.run_server_simulation`'s
RNG consumption draw for draw), precomputes per-point deadline matrices,
and advances *point groups* in lockstep — one queue mirror per group
whose per-point state is a ``(n_points, queue)`` float matrix, decided
by one batched :meth:`~repro.simfast.tables.VPTableEngine.decide_batch`
CCDF gather over all points × all ladder rungs at once.

Two mechanisms keep the group structure proportional to actual
divergence rather than to the grid size:

* **copy-on-diverge** — a group forks only when points stop agreeing
  on the event ordering: a differing EDF insert position, or a
  differing chosen frequency (which shifts the completion time);
* **merge-at-idle** — a fork's divergence is transient (it only lives
  as long as the affected busy period), so groups re-merge as soon as
  they are idle waiting for the same arrival.  Energy/busy/frequency
  residency are per-point accumulator vectors — pure outputs that
  never feed back into the dynamics — which makes "idle before
  arrival ``k``" a complete dynamics state and the merge exact.  The
  per-core driver advances the group with the smallest next-arrival
  index first, so no merge opportunity is ever missed.

TimeTrader points form a third, *feedback* group kind beside the
constant and VP-table ones: a per-point singleton (its window is per
point, so it never forks or merges) holding its core's governor.  The
group applies the governor's current frequency at each decision,
feeds every completion to ``on_complete`` and carries the governor's
next timer tick, firing ``on_timer`` (then, on a busy core, a sync and
a non-forced re-decision) exactly as the scalar loop's periodic event
does — ticks at a phase end included, like every event there.  Other
groups carry no timer, which costs their events one comparison.

The hard contract is bit-identical per-point results: every float op
below mirrors the scalar simulator's op order (see
``tests/test_multipoint.py``).  Points the lockstep engine cannot
represent (the clairvoyant oracle, sleep models, JSQ dispatch)
transparently fall back to scalar
:func:`~repro.sim.runner.run_server_simulation` runs — correct, just
not accelerated.

Tie-breaking: an arrival and a completion landing on the *exact* same
float timestamp fire completion-first here.  In the scalar loop the
ordering follows heap sequence numbers and is completion-first in every
reachable schedule except a measure-zero float coincidence (a
completion rescheduled by an unrelated core event colliding bitwise
with a pre-scheduled arrival), which fixed-seed equivalence tests
would surface.  A timer tick tied with an arrival or a completion
fires first here.  The scalar loop schedules each tick a full period
(5 s) ahead, so the tick holds the lower sequence number unless the
tied arrival's inter-arrival gap, or the time since the tied
completion's last frequency decision, is longer than the period — on
top of the bitwise tie itself being a measure-zero coincidence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng, spawn
from ..server.service import ServiceModel
from ..stats import LatencySummary

__all__ = ["MultipointPoint", "run_multipoint_simulation"]

_INF = float("inf")

#: ``ServerSimConfig`` fields every lockstep point must agree on — they
#: shape the shared trace (or the meters' time base), not the policy.
_SHARED_FIELDS = (
    "utilization",
    "network_budget_s",
    "n_cores",
    "duration_s",
    "warmup_s",
    "seed",
    "dispatch",
)


@dataclass(frozen=True)
class MultipointPoint:
    """One grid point of a lockstep run.

    ``governor_factory()`` must be stateless (return an equivalent
    fresh governor on every call): the engine probes one instance for
    classification and may call the factory again on the scalar
    fallback path.
    """

    config: object  # ServerSimConfig (imported lazily to avoid a cycle)
    governor_factory: object
    governor_name: str | None = None


@dataclass(frozen=True)
class _Trace:
    """The shared workload trace, already dispatched to cores."""

    arrival: np.ndarray  # (M,) absolute arrival times; rid == index
    work: np.ndarray  # (M,) reference work
    netrep: np.ndarray  # (M,) network + reply latency (result field 2)
    core: np.ndarray  # (M,) dispatch target


class _Kind:
    """Immutable per-group policy configuration (shared by forks)."""

    __slots__ = ("index", "vp", "tables", "vp_mode", "target_vp", "reorders", "f_const",
                 "factory")

    def __init__(self, index, vp, tables=None, vp_mode=None, target_vp=None,
                 reorders=False, f_const=None, factory=None):
        self.index = index
        self.vp = vp
        self.tables = tables
        self.vp_mode = vp_mode
        self.target_vp = target_vp
        self.reorders = reorders
        self.f_const = f_const
        #: Feedback kinds only: the point's governor factory (one
        #: governor per core, as in the scalar loop).
        self.factory = factory


class _Group:
    """One copy-on-diverge point group on one core.

    All points in a group have experienced identical event sequences,
    so the *dynamics* state (queue, service progress, frequency) is
    shared scalars; the deadline mirror ``qdl``/``svc_gd`` and the
    output accumulators (energy, busy time, frequency residency) are
    per-point vectors — the latter so that groups whose dynamics
    reconverge can merge regardless of their divergent histories.

    A feedback group (TimeTrader) is a single point that owns its
    core's governor ``gov`` and that governor's next timer tick
    ``t_timer``; every other group carries ``gov = None`` and
    ``t_timer = inf``.
    """

    __slots__ = (
        "kind", "pts", "gov", "t_timer", "queue", "qdl", "n_q", "svc", "svc_gd",
        "remaining", "started_at", "frequency", "completion",
        "power", "mtime", "mstart", "energy",
        "busy", "wfreq", "stats_start", "ptr", "done",
    )

    def __init__(self, kind: _Kind, pts: np.ndarray, idle_watts: float, gov=None):
        n = len(pts)
        self.kind = kind
        self.pts = pts
        self.gov = gov
        # The scalar loop arms the first tick one period after t = 0.
        self.t_timer = _INF if gov is None else gov.timer_period_s
        self.queue: list[int] = []
        self.qdl = np.empty((n, 16)) if kind.vp else None
        self.n_q = 0
        self.svc: int | None = None
        self.svc_gd: np.ndarray | None = None
        self.remaining = 0.0
        self.started_at: float | None = None
        self.frequency = 0.0
        self.completion: float | None = None
        # EnergyMeter state, inlined: ``power`` follows the shared
        # dynamics; the integrals are per-point.
        self.power = idle_watts
        self.mtime = np.zeros(n)
        self.mstart = 0.0
        self.energy = np.zeros(n)
        self.busy = np.zeros(n)
        self.wfreq = np.zeros(n)
        self.stats_start = 0.0
        self.ptr = 0
        self.done: list[tuple[int, float]] = []

    def fork(self, rows: np.ndarray) -> "_Group":
        """A child carrying the point subset ``rows`` (local indices)."""
        child = _Group.__new__(_Group)
        child.kind = self.kind
        child.pts = self.pts[rows]
        child.gov = self.gov
        child.t_timer = self.t_timer
        child.queue = list(self.queue)
        child.qdl = self.qdl[rows].copy() if self.qdl is not None else None
        child.n_q = self.n_q
        child.svc = self.svc
        child.svc_gd = self.svc_gd[rows] if self.svc_gd is not None else None
        child.remaining = self.remaining
        child.started_at = self.started_at
        child.frequency = self.frequency
        child.completion = self.completion
        child.power = self.power
        child.mtime = self.mtime[rows]
        child.mstart = self.mstart
        child.energy = self.energy[rows]
        child.busy = self.busy[rows]
        child.wfreq = self.wfreq[rows]
        child.stats_start = self.stats_start
        child.ptr = self.ptr
        child.done = []
        return child

    def merge(self, other: "_Group") -> "_Group":
        """Union of two idle sibling groups (same kind, same next
        arrival).  Both sources must have been flushed already."""
        merged = _Group.__new__(_Group)
        merged.kind = self.kind
        merged.pts = np.concatenate([self.pts, other.pts])
        merged.gov = self.gov
        merged.t_timer = self.t_timer
        merged.queue = []
        merged.qdl = np.empty((len(merged.pts), 16)) if self.kind.vp else None
        merged.n_q = 0
        merged.svc = None
        merged.svc_gd = None
        merged.remaining = 0.0
        merged.started_at = None
        merged.frequency = 0.0
        merged.completion = None
        merged.power = self.power  # both idle ⇒ idle_watts
        merged.mtime = np.concatenate([self.mtime, other.mtime])
        merged.mstart = self.mstart
        merged.energy = np.concatenate([self.energy, other.energy])
        merged.busy = np.concatenate([self.busy, other.busy])
        merged.wfreq = np.concatenate([self.wfreq, other.wfreq])
        merged.stats_start = self.stats_start
        merged.ptr = self.ptr
        merged.done = []
        return merged


class _CoreEngine:
    """Advances one core's point groups through the shared trace."""

    def __init__(self, trace, arr_ids, gd, dl, net, rep, speed_of, active_power_of,
                 idle_watts, stats, point_done):
        self.trace = trace
        self.arr_ids = arr_ids  # (m,) global arrival indices on this core
        self.arr_t = trace.arrival[arr_ids]
        self.gd = gd  # (P, M) per-point governor deadlines
        # Feedback completion hooks only: actual deadlines and the
        # request/reply latencies, kept apart for Request's op order.
        self.dl = dl  # (P, M)
        self.net = net  # (M,)
        self.rep = rep  # (M,)
        self.speed_of = speed_of
        self.active_power_of = active_power_of
        self.idle_watts = idle_watts
        self.stats = stats
        self.point_done = point_done  # per-point completion sinks

    # -- lineage --------------------------------------------------------------------

    def flush(self, g: _Group) -> None:
        """Hand a retiring group's completions to its points.

        A point's lineage (root → fork child → merged group → …)
        retires strictly forward in simulation time, so per-point
        flush order is chronological."""
        if g.done:
            for p in g.pts:
                self.point_done[p].extend(g.done)
            g.done = []

    # -- meter / progress (mirror CoreSimulator float-for-float) -------------------

    # The energy-meter advance (energy += power * dt) is inlined at its
    # two call sites below; singleton groups dominate after forking, so
    # the element-wise branch skips two ufunc dispatches per advance
    # and rounds identically (same double math).

    def _set_power(self, g: _Group, watts: float, now: float) -> None:
        # inline _advance_meter (hot: once per power change)
        if g.energy.size == 1:
            g.energy[0] += g.power * (now - g.mtime[0])
            g.mtime[0] = now
        else:
            g.energy += g.power * (now - g.mtime)
            g.mtime[:] = now
        g.power = watts

    def _sync(self, g: _Group, now: float) -> None:
        if g.svc is not None and g.started_at is not None:
            elapsed = now - g.started_at
            if elapsed > 0:
                retired = elapsed / self.speed_of(g.frequency)
                g.remaining = max(0.0, g.remaining - retired)
                if g.busy.size == 1:
                    g.busy[0] += elapsed
                    g.wfreq[0] += elapsed * g.frequency
                else:
                    g.busy += elapsed
                    g.wfreq += elapsed * g.frequency
            g.started_at = now
        # inline _advance_meter (hot: once per sync)
        if g.energy.size == 1:
            g.energy[0] += g.power * (now - g.mtime[0])
            g.mtime[0] = now
        else:
            g.energy += g.power * (now - g.mtime)
            g.mtime[:] = now

    def _apply(self, g: _Group, f: float, now: float, force: bool) -> None:
        if not force and abs(f - g.frequency) < 1e-6:
            return
        g.frequency = f
        self._set_power(g, self.active_power_of(f), now)
        remaining_time = g.remaining * self.speed_of(f)
        g.completion = now + remaining_time

    # -- decisions ------------------------------------------------------------------

    def _decide_apply(self, g: _Group, now: float, force: bool):
        kind = g.kind
        if not kind.vp:
            # TimeTrader's select_frequency ignores the snapshot and
            # returns its current frequency, so no snapshot is built.
            f = kind.f_const if g.gov is None else g.gov.current_frequency
            self._apply(g, f, now, force)
            return None
        n_pts = len(g.pts)
        q = g.n_q
        completed = self.trace.work[g.svc] - g.remaining
        offset = kind.tables.head_offset(completed or 0.0)
        if n_pts == 1:
            # Singleton group: the pure-Python early-exit decision (same
            # floats, no vectorization overhead for a 1-row batch).
            deltas1 = [g.svc_gd[0] - now]
            if q:
                row = g.qdl[0]
                deltas1 += [row[i] - now for i in range(q)]
            f = kind.tables.decide_point(deltas1, offset, kind.vp_mode, kind.target_vp)
            self.stats["n_decisions"] += 1
            self._apply(g, f, now, force)
            return None
        deltas = np.empty((n_pts, 1 + q))
        deltas[:, 0] = g.svc_gd - now
        np.subtract(g.qdl[:, :q], now, out=deltas[:, 1:])
        chosen = kind.tables.decide_batch(deltas, offset, kind.vp_mode, kind.target_vp)
        self.stats["n_decisions"] += n_pts
        first = chosen[0]
        if n_pts == 1 or bool((chosen == first).all()):
            self._apply(g, float(first), now, force)
            return None
        self.stats["n_forks"] += 1
        self.flush(g)
        children = []
        for f in np.unique(chosen):
            child = g.fork(np.flatnonzero(chosen == f))
            self._apply(child, float(f), now, force)
            children.append(child)
        return children

    # -- queue transitions ----------------------------------------------------------

    def _grow_qdl(self, g: _Group, need: int) -> None:
        if need > g.qdl.shape[1]:
            grown = np.empty((len(g.pts), max(2 * g.qdl.shape[1], need)))
            grown[:, : g.n_q] = g.qdl[:, : g.n_q]
            g.qdl = grown

    def _insert(self, g: _Group, pos: int, a: int, newd: np.ndarray) -> None:
        self._grow_qdl(g, g.n_q + 1)
        g.qdl[:, pos + 1 : g.n_q + 1] = g.qdl[:, pos : g.n_q]
        g.qdl[:, pos] = newd
        g.n_q += 1
        g.queue.insert(pos, a)

    def _start_next(self, g: _Group, now: float):
        a = g.queue.pop(0)
        if g.kind.vp:
            g.svc_gd = g.qdl[:, 0].copy()
            g.qdl[:, : g.n_q - 1] = g.qdl[:, 1 : g.n_q]
            g.n_q -= 1
        g.svc = a
        g.remaining = self.trace.work[a]
        g.started_at = now
        return self._decide_apply(g, now, force=True)

    def _post_enqueue(self, g: _Group, now: float):
        if g.svc is None:
            return self._start_next(g, now)
        self._sync(g, now)
        return self._decide_apply(g, now, force=False)

    def _handle_arrival(self, g: _Group, a: int, now: float):
        if g.kind.vp:
            if len(g.pts) == 1:
                # Singleton group: scalar insert (a sorted row's prefix
                # of elements <= new is exactly the side="right" count).
                nv = self.gd[g.pts[0], a]
                n_q = g.n_q
                pos = n_q
                if g.kind.reorders:
                    row = g.qdl[0]
                    pos = 0
                    while pos < n_q and row[pos] <= nv:
                        pos += 1
                self._grow_qdl(g, n_q + 1)
                row = g.qdl[0]
                if pos < n_q:
                    row[pos + 1 : n_q + 1] = row[pos:n_q]
                row[pos] = nv
                g.n_q += 1
                g.queue.insert(pos, a)
                return self._post_enqueue(g, now)
            newd = self.gd[g.pts, a]
            if g.kind.reorders and g.n_q:
                # searchsorted side="right" per point: elements <= new.
                pos_vec = (g.qdl[:, : g.n_q] <= newd[:, None]).sum(axis=1)
                first = pos_vec[0]
                if not bool((pos_vec == first).all()):
                    self.stats["n_forks"] += 1
                    self.flush(g)
                    children = []
                    for pos in np.unique(pos_vec):
                        rows = np.flatnonzero(pos_vec == pos)
                        child = g.fork(rows)
                        self._insert(child, int(pos), a, newd[rows])
                        sub = self._post_enqueue(child, now)
                        children.extend(sub if sub is not None else [child])
                    return children
                self._insert(g, int(first), a, newd)
            else:
                # FIFO append — or an EDF insert into an empty queue,
                # which is the same position.
                pos = g.n_q
                self._grow_qdl(g, g.n_q + 1)
                g.qdl[:, pos] = newd
                g.n_q += 1
                g.queue.insert(pos, a)
        else:
            g.queue.append(a)
        return self._post_enqueue(g, now)

    def _handle_completion(self, g: _Group, now: float):
        self._sync(g, now)
        g.remaining = 0.0
        a = g.svc
        g.done.append((a, now))
        if g.gov is not None:
            # Request.total_latency's op order: (net + sojourn) + reply.
            total = (self.net[a] + (now - self.trace.arrival[a])) + self.rep[a]
            met = not (now > self.dl[g.pts[0], a] + 1e-12)
            g.gov.on_complete(total, met, now)
        g.svc = None
        g.started_at = None
        g.completion = None
        if g.kind.vp:
            g.svc_gd = None
        if g.queue:
            return self._start_next(g, now)
        g.frequency = 0.0
        self._set_power(g, self.idle_watts, now)
        return None

    def _handle_timer(self, g: _Group, now: float) -> None:
        g.t_timer = now + g.gov.timer_period_s
        g.gov.on_timer(now)
        if g.svc is not None:
            self._sync(g, now)
            self._decide_apply(g, now, force=False)

    # -- the loop -------------------------------------------------------------------

    def _advance(self, g: _Group, until: float):
        """Run ``g`` until the phase end, the next idle gap, or a fork.

        Returns ``None`` at the phase boundary, ``"idle"`` when the
        core went idle (the group is frozen until arrival ``g.ptr``,
        the merge rendezvous), or the fork children."""
        arr_t = self.arr_t
        n_arr = arr_t.size
        while True:
            t_arr = arr_t[g.ptr] if g.ptr < n_arr else _INF
            t_cmp = g.completion if g.svc is not None else _INF
            t_tmr = g.t_timer  # inf unless a feedback group
            if t_tmr <= t_arr and t_tmr <= t_cmp:
                if t_tmr > until:
                    return None
                self.stats["n_events"] += 1
                self._handle_timer(g, t_tmr)
                continue
            if t_cmp <= t_arr:
                if t_cmp > until:
                    return None
                self.stats["n_events"] += 1
                kids = self._handle_completion(g, t_cmp)
                if kids is None and g.svc is None:
                    return "idle"
            else:
                if t_arr > until:
                    return None
                a = int(self.arr_ids[g.ptr])
                g.ptr += 1
                self.stats["n_events"] += 1
                kids = self._handle_arrival(g, a, t_arr)
            if kids is not None:
                return kids

    def run_phase(self, groups: list[_Group], until: float) -> list[_Group]:
        """Advance every group to ``until``, merging reconverged forks.

        Idle groups wait in a min-heap keyed by (next arrival, kind);
        the smallest key resumes first, so by the time a group resumes
        no sibling can still reach the same idle state — every merge
        opportunity is taken."""
        finished: list[_Group] = []
        idle: dict[tuple[int, int], _Group] = {}
        heap: list[tuple[int, int]] = []
        stack = list(groups)
        while stack or heap:
            if stack:
                g = stack.pop()
            else:
                key = heapq.heappop(heap)
                g = idle.pop(key, None)
                if g is None:
                    continue  # stale entry (superseded by a merge)
            res = self._advance(g, until)
            if res is None:
                finished.append(g)
            elif res == "idle":
                key = (g.ptr, g.kind.index)
                sibling = idle.get(key)
                if sibling is not None:
                    self.flush(sibling)
                    self.flush(g)
                    idle[key] = sibling.merge(g)
                    self.stats["n_merges"] += 1
                else:
                    idle[key] = g
                    heapq.heappush(heap, key)
            else:
                stack.extend(res)
        return finished


# -- trace extraction ---------------------------------------------------------------


def _extract_trace(service_model, cfg, network_latency_sampler,
                   reply_latency_sampler):
    """Replicate the scalar runner's RNG consumption, draw for draw.

    The scalar runner refills four buffers per 4096-arrival chunk in
    the order netlat → replat → gaps → work, schedules the first
    arrival after ``gaps[0]``, and has arrival ``j`` (rid ``j``) read
    flat index ``j + 1``.  ``np.cumsum`` over the concatenated gaps is
    the same sequential float accumulation as the event clock.
    """
    from ..sim.runner import constant_latency_sampler

    rng = ensure_rng(cfg.seed)
    arrival_rng, latency_rng, work_rng, dispatch_rng = spawn(rng, 4)
    if network_latency_sampler is None:
        network_latency_sampler = constant_latency_sampler(cfg.network_budget_s / 2.0)

    per_core_rate = service_model.arrival_rate_for_utilization(cfg.utilization)
    rate = per_core_rate * cfg.n_cores
    chunk = 4096

    net_parts, rep_parts, gap_parts, work_parts = [], [], [], []
    while True:
        netlat = np.asarray(network_latency_sampler(chunk, latency_rng), dtype=float)
        if reply_latency_sampler is not None:
            replat = np.asarray(reply_latency_sampler(chunk, latency_rng), dtype=float)
        else:
            replat = np.zeros(chunk)
        if np.any(netlat < 0) or np.any(replat < 0):
            raise ConfigurationError("network latency sampler returned negative values")
        gaps = arrival_rng.exponential(1.0 / rate, size=chunk)
        work = np.asarray(service_model.sample_work(chunk, work_rng), dtype=float)
        net_parts.append(netlat)
        rep_parts.append(replat)
        gap_parts.append(gaps)
        work_parts.append(work)
        arrivals = np.cumsum(np.concatenate(gap_parts)) if len(gap_parts) > 1 else np.cumsum(gaps)
        if arrivals[-1] > cfg.duration_s:
            break

    # Arrival j fires at the cumulative sum of gaps[0..j] and reads
    # flat index j + 1 for work/latency; arrivals at exactly
    # duration_s still fire (run_until is inclusive).
    m = int(np.searchsorted(arrivals, cfg.duration_s, side="right"))
    net = np.concatenate(net_parts)[1 : m + 1]
    rep = np.concatenate(rep_parts)[1 : m + 1]
    work = np.concatenate(work_parts)[1 : m + 1]
    arrivals = arrivals[:m]

    if cfg.dispatch == "random":
        core = dispatch_rng.integers(cfg.n_cores, size=m)
    else:  # round-robin
        core = np.arange(m, dtype=np.int64) % cfg.n_cores

    return _Trace(arrival=arrivals, work=work, netrep=net + rep, core=core), net, rep


# -- classification -----------------------------------------------------------------


def _classify(probe, sleep_model, dispatch):
    """True when the lockstep engine reproduces this point exactly.

    Lockstep prices the constant, VP-table and TimeTrader governors on
    per-core dispatch without a sleep model; the scalar loop keeps
    every other timer or completion-hook governor (the clairvoyant
    oracle reads true work), sleep models and JSQ dispatch.
    """
    from ..policies.base import Governor, VPGovernor
    from ..policies.maxfreq import MaxFrequencyGovernor
    from ..policies.timetrader import TimeTraderGovernor

    if sleep_model is not None or dispatch == "jsq":
        return False
    if isinstance(probe, TimeTraderGovernor):
        return True
    if type(probe).timer_period_s is not None:
        return False
    if type(probe).on_complete is not Governor.on_complete:
        return False
    return isinstance(probe, (MaxFrequencyGovernor, VPGovernor))


def _group_key(probe):
    from ..policies.maxfreq import MaxFrequencyGovernor
    from ..policies.timetrader import TimeTraderGovernor

    if isinstance(probe, MaxFrequencyGovernor):
        return ("const", float(probe.ladder.f_max))
    if isinstance(probe, TimeTraderGovernor):
        # Feedback state is per point: a singleton group that never
        # forks or merges.
        return ("feedback", id(probe))
    # network_aware is deliberately absent: it only shapes the deadline
    # *values* (per-point data), not the group dynamics.
    return (
        "vp",
        id(probe._tables),
        probe.vp_mode,
        float(probe.target_vp),
        bool(probe.reorders_queue),
    )


# -- entry point --------------------------------------------------------------------


def run_multipoint_simulation(
    service_model: ServiceModel,
    points: list[MultipointPoint],
    network_latency_sampler=None,
    sleep_model=None,
    reply_latency_sampler=None,
    stats_out: dict | None = None,
):
    """Simulate every grid point in one lockstep pass.

    Returns one :class:`~repro.sim.runner.ServerSimResult` per point,
    in input order, each bit-identical to
    :func:`~repro.sim.runner.run_server_simulation` of the same point.
    Points the lockstep model cannot represent run through the scalar
    simulator transparently.
    """
    from ..power.models import CorePowerModel
    from ..sim.runner import ServerSimResult, run_server_simulation

    if not points:
        return []

    stats = {"n_events": 0, "n_decisions": 0, "n_forks": 0, "n_merges": 0,
             "n_fallback": 0}

    probes = [p.governor_factory() for p in points]

    supported = [
        i for i, p in enumerate(points)
        if _classify(probes[i], sleep_model, p.config.dispatch)
    ]
    results: list[ServerSimResult | None] = [None] * len(points)

    for i, p in enumerate(points):
        if i in supported:
            continue
        stats["n_fallback"] += 1
        results[i] = run_server_simulation(
            service_model,
            p.governor_factory,
            p.config,
            network_latency_sampler=network_latency_sampler,
            governor_name=p.governor_name,
            sleep_model=sleep_model,
            reply_latency_sampler=reply_latency_sampler,
        )

    if supported:
        cfg0 = points[supported[0]].config
        for i in supported[1:]:
            for field in _SHARED_FIELDS:
                if getattr(points[i].config, field) != getattr(cfg0, field):
                    raise ConfigurationError(
                        f"multipoint points disagree on shared field {field!r}: "
                        f"{getattr(points[i].config, field)!r} != {getattr(cfg0, field)!r}"
                    )

        trace, net, rep = _extract_trace(
            service_model, cfg0, network_latency_sampler, reply_latency_sampler
        )
        n_arrivals = trace.arrival.size
        n_sup = len(supported)

        # Per-point deadline matrices, scalar op order:
        #   deadline         = ((T + L) - net) - rep
        #   governor (aware) = (T + L) - net
        #   governor (obliv) = T + server_budget
        dl = np.empty((n_sup, n_arrivals))
        gd = np.empty((n_sup, n_arrivals))
        for s, i in enumerate(supported):
            cfg = points[i].config
            tl = trace.arrival + cfg.latency_constraint_s
            dl[s] = (tl - net) - rep
            if probes[i].network_aware:
                gd[s] = tl - net
            else:
                gd[s] = trace.arrival + cfg.server_budget_s

        fm = service_model.frequency_model
        power_model = CorePowerModel()
        _speeds: dict[float, float] = {}
        _powers: dict[float, float] = {}

        def speed_of(f: float) -> float:
            v = _speeds.get(f)
            if v is None:
                v = _speeds[f] = fm.speed_factor(f)
            return v

        def active_power_of(f: float) -> float:
            v = _powers.get(f)
            if v is None:
                v = _powers[f] = power_model.active_power(f)
            return v

        # Initial groups: one per dynamics signature, shared across all
        # points whose governors evolve identically from equal state.
        kinds: dict[tuple, tuple[_Kind, list[int]]] = {}
        for s, i in enumerate(supported):
            probe = probes[i]
            key = _group_key(probe)
            if key not in kinds:
                if key[0] == "const":
                    kind = _Kind(index=len(kinds), vp=False, f_const=key[1])
                elif key[0] == "feedback":
                    kind = _Kind(index=len(kinds), vp=False,
                                 factory=points[i].governor_factory)
                else:
                    kind = _Kind(
                        index=len(kinds),
                        vp=True,
                        tables=probe._tables,
                        vp_mode=probe.vp_mode,
                        target_vp=probe.target_vp,
                        reorders=probe.reorders_queue,
                    )
                kinds[key] = (kind, [])
            kinds[key][1].append(s)

        # Per-core lockstep runs.
        duration, warmup = cfg0.duration_s, cfg0.warmup_s
        point_done: list[list] = [[] for _ in range(n_sup)]
        core_busy = np.empty((n_sup, cfg0.n_cores))
        core_freq = np.empty((n_sup, cfg0.n_cores))
        core_power = np.empty((n_sup, cfg0.n_cores))
        for c in range(cfg0.n_cores):
            arr_ids = np.flatnonzero(trace.core == c)
            engine = _CoreEngine(
                trace, arr_ids, gd, dl, net, rep, speed_of, active_power_of,
                power_model.idle_watts, stats, point_done,
            )
            groups = []
            for kind, rows in kinds.values():
                gov = None
                if kind.factory is not None:
                    # As in the scalar loop: the probe serves core 0,
                    # the factory makes every other core's governor.
                    gov = probes[supported[rows[0]]] if c == 0 else kind.factory()
                groups.append(_Group(
                    kind, np.asarray(rows, dtype=np.intp), power_model.idle_watts, gov
                ))
            leaves = engine.run_phase(groups, warmup)
            for g in leaves:
                engine._sync(g, warmup)
                g.busy[:] = 0.0
                g.wfreq[:] = 0.0
                g.stats_start = warmup
                g.energy[:] = 0.0
                g.mstart = warmup
            leaves = engine.run_phase(leaves, duration)
            for g in leaves:
                # Scalar read order: busy_fraction and the busy-weighted
                # frequency are materialized *before* cpu_power()'s
                # final sync folds the tail segment in.
                elapsed = duration - g.stats_start
                busy_frac = g.busy / elapsed if elapsed > 0 else np.zeros(len(g.pts))
                mean_freq = np.zeros(len(g.pts))
                np.divide(g.wfreq, g.busy, out=mean_freq, where=g.busy > 0)
                engine._sync(g, duration)
                m_elapsed = duration - g.mstart
                if m_elapsed > 0:
                    avg_power = g.energy / m_elapsed
                else:
                    avg_power = np.full(len(g.pts), g.power)
                engine.flush(g)
                core_busy[g.pts, c] = busy_frac
                core_freq[g.pts, c] = mean_freq
                core_power[g.pts, c] = avg_power

        for s, i in enumerate(supported):
            point = points[i]
            cfg = point.config
            completions = point_done[s]
            completions.sort(key=lambda af: (af[1], af[0]))

            fields = np.empty((len(completions), 4))
            n = 0
            for a, fin in completions:
                if trace.arrival[a] >= warmup:
                    row = fields[n]
                    row[0] = trace.arrival[a]
                    row[1] = fin
                    row[2] = trace.netrep[a]
                    row[3] = dl[s, a]
                    n += 1
            if n == 0:
                raise ConfigurationError(
                    "no requests completed after warmup; increase duration or load"
                )
            fields = fields[:n]
            sojourns = fields[:, 1] - fields[:, 0]
            totals = sojourns + fields[:, 2]
            violations = fields[:, 1] > fields[:, 3] + 1e-12
            busy = core_busy[s]
            busy_total = busy.sum()
            mean_freq = (
                float(np.dot(busy, core_freq[s]) / busy_total) if busy_total > 0 else 0.0
            )
            cpu_power = float(sum(core_power[s]))

            results[i] = ServerSimResult(
                governor=point.governor_name or probes[i].name,
                config=cfg,
                n_completed=n,
                cpu_power_watts=cpu_power,
                server_power_watts=cfg.static_watts + cpu_power,
                total_latency=LatencySummary.from_samples(totals),
                sojourn=LatencySummary.from_samples(sojourns),
                violation_rate=float(violations.mean()),
                mean_busy_frequency_hz=mean_freq,
                mean_busy_fraction=float(busy.mean()),
            )

    if stats_out is not None:
        stats_out.update(stats)
        stats_out["n_points"] = len(points)
    return results
