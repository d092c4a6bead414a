"""Lockstep DES: one point, one event loop per core, plain Python floats.

The paper prices every operating point by scaling one representative
server's DES run.  ``run_multipoint_simulation`` is that DES, the only
one in the package.  It runs a list of points, each on its own: it
extracts the point's workload trace once (the Poisson arrivals, works
and latencies of :func:`~repro.sim.runner.run_server_simulation`'s
RNG streams, draw for draw), precomputes the point's deadlines, and
advances each core through its share of the trace in one loop over
scalar state — the queue and its deadlines as lists, progress,
frequency, completion time and the meter integrals as floats.

A core's governor decides in one of four ways, picked once per point:

* a VP governor through
  :meth:`~repro.simfast.tables.VPTableEngine.decide_point`, which walks
  the ladder from the rung the core chose last;
* the constant governor (no power management) applies ``f_max``;
* TimeTrader applies its core governor's current frequency;
* any other governor (today the clairvoyant oracle) is asked through
  :meth:`~repro.policies.base.Governor.select_frequency` with the
  core's :class:`~repro.policies.base.QueueSnapshot`.

The last two are fed every completion through ``on_complete`` and, if
they carry a timer, fire ``on_timer`` every period (then, on a busy
core, a sync and a non-forced re-decision) — ticks at a phase end
included.  An optional sleep model (PowerNap family) adds a per-core
idle → entry → asleep → wake state machine: a completion onto an empty
queue arms the entry, an arrival cancels a pending entry, an arrival
on a sleeping core starts a wake at idle power, arrivals during a wake
only queue, and the wake's end starts service with a forced decision.
The timer tick and the pending sleep event share one "next auxiliary
event" slot, so a point with neither pays at most one comparison per
event for them.

The hard contract is bit-identical results against the event-heap
reference loop in ``tests/oracles/server.py``: every float op below
mirrors its op order (see ``tests/test_multipoint.py``), and Python
float arithmetic is the same IEEE double arithmetic as NumPy's.

Tie-breaking, for events landing on the *exact* same float timestamp:
a timer tick fires first, then a sleep event, then a completion, then
an arrival.  The reference loop orders ties by heap sequence number,
and these rules match it in every reachable schedule but measure-zero
float coincidences, which fixed-seed equivalence tests would surface:

* completion before arrival — a tie needs a completion rescheduled by
  an unrelated event to collide bitwise with a pre-scheduled arrival;
* a tick before an arrival or a completion — the reference schedules
  each tick a full period (5 s) ahead, so the tick holds the lower
  sequence number unless the tied arrival's inter-arrival gap, or the
  time since the tied completion's last frequency decision, is longer
  than the period;
* a tick before a sleep event — likewise, unless the entry or wake was
  armed more than a period before it lands;
* a sleep event before an arrival — a wake's end is scheduled by the
  arrival that starts it, before the next arrival is, so it always
  wins (a zero wake latency makes this tie structural); a sleep entry
  tied with an arrival is a float coincidence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng, spawn
from ..server.service import ServiceModel
from ..stats import LatencySummary

__all__ = ["MultipointPoint", "run_multipoint_simulation"]

_INF = float("inf")

# A core's sleep states (see the module docstring).
_AWAKE, _ENTRY, _ASLEEP, _WAKING = 0, 1, 2, 3


@dataclass(frozen=True)
class MultipointPoint:
    """One server point of a :func:`run_multipoint_simulation` call.

    ``governor_factory()`` must return a fresh governor per call: the
    first one made is probed for its kind and serves core 0, and a
    governor that keeps per-core state (TimeTrader, the oracle) gets
    one more per further core.
    """

    config: object  # ServerSimConfig (imported lazily to avoid a cycle)
    governor_factory: object
    governor_name: str | None = None


@dataclass(frozen=True)
class _Trace:
    """One point's workload trace, already dispatched to cores."""

    arrival: np.ndarray  # (M,) absolute arrival times; rid == index
    work: np.ndarray  # (M,) reference work
    netrep: np.ndarray  # (M,) network + reply latency (result field 2)
    core: np.ndarray  # (M,) dispatch target


class _Memo(dict):
    """``f -> fn(f)``, computed once per frequency."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, f):
        v = self[f] = self.fn(f)
        return v


# -- the per-core loop --------------------------------------------------------------


def _run_core(arr, work, gd, hook, policy, nap_model, warmup, duration, speed,
              active_power, idle_watts, stats):
    """Advance one core through its arrivals.

    ``arr``/``work``/``gd`` are this core's arrival times, works and
    governor deadlines as Python lists.  ``policy`` is ``(f_const,
    tables, mode, target_vp, reorders, gov, snapshot)``: a VP point
    sets ``tables``, a constant point ``f_const``; TimeTrader sets
    ``gov``, and a snapshot governor sets ``gov`` and ``snapshot``.
    A VP point keeps the core's last rung (0 before the first
    decision) as the start of the next decision's ladder walk.
    Both governor kinds pass ``hook = (net, rep, dl)`` lists for
    ``on_complete``.  ``nap_model`` is the sleep model or ``None``.

    Returns the completions as two lists (local indices, finish times)
    plus the busy fraction, busy-weighted mean frequency and average
    power over the measured window, read in the reference loop's order.
    """
    from ..policies.base import QueueSnapshot

    f_const, tables, mode, target_vp, reorders, gov, snapshot = policy
    # VP and snapshot governors see the queued deadlines, in EDF order
    # when the governor reorders.
    track = tables is not None or snapshot
    freqs = None if tables is None else tables.frequencies
    n_arr = len(arr)
    ptr = 0
    queue: list[int] = []  # waiting requests (local indices), service order
    qdl: list[float] = []  # their governor deadlines (tracked kinds only)
    svc = None  # in-service local index
    svc_gd = 0.0
    remaining = 0.0
    started_at = 0.0
    frequency = 0.0
    rung = 0  # last VP decision's ladder rung
    completion = _INF
    # EnergyMeter state, inlined.
    power = idle_watts
    mtime = 0.0
    energy = 0.0
    busy = 0.0
    wfreq = 0.0
    # The reference arms the first tick one period after t = 0.
    period = _INF if gov is None or gov.timer_period_s is None else gov.timer_period_s
    t_timer = period
    # Sleep state: _AWAKE, _ENTRY (entry pending at t_nap), _ASLEEP or
    # _WAKING (wake ends at t_nap).  t_aux = min(t_timer, t_nap).
    nap = _AWAKE
    t_nap = _INF
    t_aux = t_timer
    done_idx: list[int] = []
    done_fin: list[float] = []
    n_events = n_decisions = 0
    until = warmup
    in_warmup = True
    while True:
        t_arr = arr[ptr] if ptr < n_arr else _INF
        if t_aux <= t_arr and t_aux <= completion:
            now, event = t_aux, 0
        elif completion <= t_arr:
            now, event = completion, 1
        else:
            now, event = t_arr, 2
        if now > until:
            if not in_warmup:
                break
            # End of warmup: fold the elapsed segment into the
            # in-service progress, then restart the meters (the folded
            # busy/energy terms would be zeroed right away).
            if svc is not None:
                elapsed = warmup - started_at
                if elapsed > 0:
                    remaining = max(0.0, remaining - elapsed / speed[frequency])
                started_at = warmup
            busy = wfreq = energy = 0.0
            mtime = warmup
            until = duration
            in_warmup = False
            continue
        n_events += 1
        if svc is not None:
            # Sync: fold the elapsed service segment into progress,
            # busy time and energy.
            elapsed = now - started_at
            if elapsed > 0:
                remaining = max(0.0, remaining - elapsed / speed[frequency])
                busy += elapsed
                wfreq += elapsed * frequency
            started_at = now
            energy += power * (now - mtime)
            mtime = now
        if event == 0:
            if t_timer <= t_nap:
                t_timer = now + period
                t_aux = t_timer if t_timer <= t_nap else t_nap
                gov.on_timer(now)
                if svc is None:
                    continue
                force = False
            else:
                t_nap = _INF
                t_aux = t_timer
                if nap == _ENTRY:
                    nap = _ASLEEP
                    energy += power * (now - mtime)
                    mtime = now
                    power = nap_model.sleep_watts
                    continue
                # The wake ends: serve the queue that woke the core.
                nap = _AWAKE
                force = True
        elif event == 1:
            remaining = 0.0
            done_idx.append(svc)
            done_fin.append(now)
            if hook is not None:
                net, rep, dl = hook
                # Request.total_latency's op order: (net + sojourn) + reply.
                total = (net[svc] + (now - arr[svc])) + rep[svc]
                gov.on_complete(total, not (now > dl[svc] + 1e-12), now)
            svc = None
            completion = _INF
            if not queue:
                frequency = 0.0
                energy += power * (now - mtime)
                mtime = now
                power = idle_watts
                if nap_model is not None:
                    nap = _ENTRY
                    t_nap = now + nap_model.entry_latency_s
                    t_aux = t_timer if t_timer <= t_nap else t_nap
                continue
            force = True
        else:
            j = ptr
            ptr += 1
            if not track:
                queue.append(j)
            else:
                nv = gd[j]
                # EDF keeps qdl sorted; ties go behind (older rid first).
                pos = bisect_right(qdl, nv) if reorders else len(qdl)
                qdl.insert(pos, nv)
                queue.insert(pos, j)
            force = svc is None
            if force and nap:
                if nap == _WAKING:
                    continue
                t_nap = _INF
                t_aux = t_timer
                if nap == _ASLEEP:
                    # The wake itself draws idle power.
                    nap = _WAKING
                    energy += power * (now - mtime)
                    mtime = now
                    power = idle_watts
                    t_nap = now + nap_model.wake_latency_s
                    t_aux = t_timer if t_timer <= t_nap else t_nap
                    continue
                # A pending entry is cancelled; no wake penalty yet.
                nap = _AWAKE
        if svc is None:
            svc = queue.pop(0)
            if track:
                svc_gd = qdl.pop(0)
            remaining = work[svc]
            started_at = now
        if tables is not None:
            deltas = [svc_gd - now]
            deltas += [d - now for d in qdl]
            offset = tables.head_offset((work[svc] - remaining) or 0.0)
            rung = tables.decide_point(deltas, offset, mode, target_vp, rung)
            f = freqs[rung]
            n_decisions += 1
        elif gov is not None:
            if snapshot:
                f = gov.select_frequency(QueueSnapshot(
                    now=now,
                    in_service_completed_work=work[svc] - remaining,
                    in_service_deadline=svc_gd,
                    queued_deadlines=tuple(qdl),
                    actual_remaining_works=(remaining, *[work[q] for q in queue]),
                ))
            else:
                # TimeTrader's select_frequency ignores the snapshot and
                # returns its current frequency, so none is built.
                f = gov.current_frequency
        else:
            f = f_const
        if force or not abs(f - frequency) < 1e-6:
            frequency = f
            energy += power * (now - mtime)
            mtime = now
            power = active_power[f]
            completion = now + remaining * speed[f]

    # Reference read order: busy_fraction and the busy-weighted
    # frequency are materialized *before* cpu_power()'s final sync
    # folds the tail segment in (only its energy term is read after).
    busy_frac = busy / (duration - warmup)
    mean_freq = wfreq / busy if busy > 0 else 0.0
    energy += power * (duration - mtime)
    stats["n_events"] += n_events
    stats["n_decisions"] += n_decisions
    return done_idx, done_fin, busy_frac, mean_freq, energy / (duration - warmup)


# -- trace extraction ---------------------------------------------------------------


def _extract_trace(service_model, cfg, network_latency_sampler,
                   reply_latency_sampler):
    """Draw one point's workload trace and dispatch it to cores.

    Four buffers are drawn per 4096-arrival chunk in the order netlat →
    replat → gaps → work; the first arrival comes after ``gaps[0]``,
    and arrival ``j`` (rid ``j``) reads flat index ``j + 1``.  The
    event-heap reference in ``tests/oracles/server.py`` draws the same
    streams chunk by chunk as its clock advances; ``np.cumsum`` over
    the concatenated gaps is the same sequential float accumulation as
    its event clock.
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
        # Both comparisons are false for NaN, so it is rejected too.
        if not (((netlat >= 0) & (netlat < _INF)).all()
                and ((replat >= 0) & (replat < _INF)).all()):
            raise ConfigurationError(
                "network latency sampler returned negative or non-finite values"
            )
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


# -- one point ----------------------------------------------------------------------


def _policy(probe):
    """``_run_core``'s policy tuple for ``probe``'s kind, minus the
    per-core governor, and whether each core needs its own governor."""
    from ..policies.base import Governor, VPGovernor
    from ..policies.maxfreq import MaxFrequencyGovernor
    from ..policies.timetrader import TimeTraderGovernor

    if isinstance(probe, TimeTraderGovernor):
        return (None, None, None, None, False), False, True
    # A timer or a completion hook needs the governor itself.
    plain = (probe.timer_period_s is None
             and type(probe).on_complete is Governor.on_complete)
    if plain and isinstance(probe, MaxFrequencyGovernor):
        return (float(probe.ladder.f_max), None, None, None, False), False, False
    if plain and isinstance(probe, VPGovernor):
        return ((None, probe._tables, probe.vp_mode, probe.target_vp,
                 probe.reorders_queue), False, False)
    return (None, None, None, None, probe.reorders_queue), True, True


def _simulate_point(service_model, point, probe, network_latency_sampler,
                    sleep_model, reply_latency_sampler, speed, active_power,
                    idle_watts, stats):
    """One point's :class:`~repro.sim.runner.ServerSimResult`."""
    from ..sim.runner import ServerSimResult

    cfg = point.config
    trace, net, rep = _extract_trace(
        service_model, cfg, network_latency_sampler, reply_latency_sampler
    )
    # Deadlines, reference op order:
    #   deadline         = ((T + L) - net) - rep
    #   governor (aware) = (T + L) - net
    #   governor (obliv) = T + server_budget
    tl = trace.arrival + cfg.latency_constraint_s
    dl = (tl - net) - rep
    gd = tl - net if probe.network_aware else trace.arrival + cfg.server_budget_s

    base_policy, snapshot, per_core = _policy(probe)
    warmup, duration = cfg.warmup_s, cfg.duration_s
    done_ids, done_fin = [], []
    core_busy = np.empty(cfg.n_cores)
    core_freq = np.empty(cfg.n_cores)
    core_power = np.empty(cfg.n_cores)
    for c in range(cfg.n_cores):
        ids = np.flatnonzero(trace.core == c)
        gov = hook = None
        if per_core:
            # The probe serves core 0, the factory makes every other
            # core's governor.
            gov = probe if c == 0 else point.governor_factory()
            hook = (net[ids].tolist(), rep[ids].tolist(), dl[ids].tolist())
        idx, fin, core_busy[c], core_freq[c], core_power[c] = _run_core(
            trace.arrival[ids].tolist(), trace.work[ids].tolist(), gd[ids].tolist(),
            hook, (*base_policy, gov, snapshot), sleep_model, warmup, duration,
            speed, active_power, idle_watts, stats,
        )
        done_ids.append(ids[idx])
        done_fin.append(np.array(fin))

    ids = np.concatenate(done_ids)
    fin = np.concatenate(done_fin)
    # Completion order: by finish time, then rid.
    order = np.lexsort((ids, fin))
    ids, fin = ids[order], fin[order]
    measured = trace.arrival[ids] >= warmup
    ids, fin = ids[measured], fin[measured]
    n = ids.size
    if n == 0:
        raise ConfigurationError(
            "no requests completed after warmup; increase duration or load"
        )
    sojourns = fin - trace.arrival[ids]
    totals = sojourns + trace.netrep[ids]
    violations = fin > dl[ids] + 1e-12
    busy_total = core_busy.sum()
    mean_freq = (
        float(np.dot(core_busy, core_freq) / busy_total) if busy_total > 0 else 0.0
    )
    cpu_power = float(sum(core_power))
    return ServerSimResult(
        governor=point.governor_name or probe.name,
        config=cfg,
        n_completed=n,
        cpu_power_watts=cpu_power,
        server_power_watts=cfg.static_watts + cpu_power,
        total_latency=LatencySummary.from_samples(totals),
        sojourn=LatencySummary.from_samples(sojourns),
        violation_rate=float(violations.mean()),
        mean_busy_frequency_hz=mean_freq,
        mean_busy_fraction=float(core_busy.mean()),
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
    """Simulate every point, each on its own.

    Returns one :class:`~repro.sim.runner.ServerSimResult` per point,
    in input order.  Points may differ in any config field; a
    ``sleep_model`` applies to every core of every point.
    """
    from ..power.models import CorePowerModel

    stats = {"n_events": 0, "n_decisions": 0}
    power_model = CorePowerModel()
    speed = _Memo(service_model.frequency_model.speed_factor)
    active_power = _Memo(power_model.active_power)
    results = [
        _simulate_point(
            service_model, point, point.governor_factory(), network_latency_sampler,
            sleep_model, reply_latency_sampler, speed, active_power,
            power_model.idle_watts, stats,
        )
        for point in points
    ]
    if stats_out is not None:
        stats_out.update(stats)
        stats_out["n_points"] = len(points)
    return results
