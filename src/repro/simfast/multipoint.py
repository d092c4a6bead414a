"""Lockstep DES: one point, one event loop per core, plain Python floats.

The paper prices every operating point by scaling one representative
server's DES run.  ``run_multipoint_simulation`` runs that DES for a
list of points, each on its own: it extracts the point's workload
trace once (replicating :func:`~repro.sim.runner.run_server_simulation`'s
RNG consumption draw for draw), precomputes the point's deadlines, and
advances each core through its share of the trace in one loop over
scalar state — the queue and its deadlines as lists, progress,
frequency, completion time and the meter integrals as floats.

A VP governor decides through
:meth:`~repro.simfast.tables.VPTableEngine.decide_point`; the constant
governor applies ``f_max``.  TimeTrader applies its core governor's
current frequency, feeds every completion to ``on_complete`` and fires
its periodic ``on_timer`` tick (then, on a busy core, a sync and a
non-forced re-decision) exactly as the scalar loop's periodic event
does — ticks at a phase end included, like every event there.  Other
governors carry no timer, which costs their events one comparison.

The hard contract is bit-identical per-point results: every float op
below mirrors the scalar simulator's op order (see
``tests/test_multipoint.py``), and Python float arithmetic is the same
IEEE double arithmetic as NumPy's.  Points this engine cannot
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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng, spawn
from ..server.service import ServiceModel
from ..stats import LatencySummary

__all__ = ["MultipointPoint", "run_multipoint_simulation"]

_INF = float("inf")


@dataclass(frozen=True)
class MultipointPoint:
    """One server point of a :func:`run_multipoint_simulation` call.

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


def _run_core(arr, work, gd, hook, policy, warmup, duration, speed, active_power,
              idle_watts, stats):
    """Advance one core through its arrivals, mirroring ``CoreSimulator``.

    ``arr``/``work``/``gd`` are this core's arrival times, works and
    governor deadlines as Python lists.  ``policy`` is ``(f_const,
    tables, mode, target_vp, reorders, gov)``: a VP point sets
    ``tables``, TimeTrader sets ``gov`` and passes ``hook = (net, rep,
    dl)`` lists for its completion window, a constant point neither.

    Returns the completions as two lists (local indices, finish times)
    plus the busy fraction, busy-weighted mean frequency and average
    power over the measured window, read in the scalar runner's order.
    """
    f_const, tables, mode, target_vp, reorders, gov = policy
    n_arr = len(arr)
    ptr = 0
    queue: list[int] = []  # waiting requests (local indices), service order
    qdl: list[float] = []  # their governor deadlines (VP points only)
    svc = None  # in-service local index
    svc_gd = 0.0
    remaining = 0.0
    started_at = 0.0
    frequency = 0.0
    completion = _INF
    # EnergyMeter state, inlined.
    power = idle_watts
    mtime = 0.0
    energy = 0.0
    busy = 0.0
    wfreq = 0.0
    # The scalar loop arms the first tick one period after t = 0.
    period = _INF if gov is None else gov.timer_period_s
    t_timer = period
    done_idx: list[int] = []
    done_fin: list[float] = []
    n_events = n_decisions = 0
    until = warmup
    in_warmup = True
    while True:
        t_arr = arr[ptr] if ptr < n_arr else _INF
        if t_timer <= t_arr and t_timer <= completion:
            now, event = t_timer, 0
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
            t_timer = now + period
            gov.on_timer(now)
            if svc is None:
                continue
            force = False
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
                continue
            force = True
        else:
            j = ptr
            ptr += 1
            if tables is None:
                queue.append(j)
            else:
                nv = gd[j]
                # EDF keeps qdl sorted; ties go behind (older rid first).
                pos = bisect_right(qdl, nv) if reorders else len(qdl)
                qdl.insert(pos, nv)
                queue.insert(pos, j)
            force = svc is None
        if svc is None:
            svc = queue.pop(0)
            if tables is not None:
                svc_gd = qdl.pop(0)
            remaining = work[svc]
            started_at = now
        if tables is not None:
            deltas = [svc_gd - now]
            deltas += [d - now for d in qdl]
            offset = tables.head_offset((work[svc] - remaining) or 0.0)
            f = tables.decide_point(deltas, offset, mode, target_vp)
            n_decisions += 1
        elif gov is not None:
            # TimeTrader's select_frequency ignores the snapshot and
            # returns its current frequency, so no snapshot is built.
            f = gov.current_frequency
        else:
            f = f_const
        if force or not abs(f - frequency) < 1e-6:
            frequency = f
            energy += power * (now - mtime)
            mtime = now
            power = active_power[f]
            completion = now + remaining * speed[f]

    # Scalar read order: busy_fraction and the busy-weighted frequency
    # are materialized *before* cpu_power()'s final sync folds the tail
    # segment in (only its energy term is read afterwards).
    busy_frac = busy / (duration - warmup)
    mean_freq = wfreq / busy if busy > 0 else 0.0
    energy += power * (duration - mtime)
    stats["n_events"] += n_events
    stats["n_decisions"] += n_decisions
    return done_idx, done_fin, busy_frac, mean_freq, energy / (duration - warmup)


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


# -- one point ----------------------------------------------------------------------


def _simulate_point(service_model, point, probe, network_latency_sampler,
                    reply_latency_sampler, speed, active_power, idle_watts, stats):
    """One supported point's :class:`~repro.sim.runner.ServerSimResult`."""
    from ..policies.maxfreq import MaxFrequencyGovernor
    from ..policies.timetrader import TimeTraderGovernor
    from ..sim.runner import ServerSimResult

    cfg = point.config
    trace, net, rep = _extract_trace(
        service_model, cfg, network_latency_sampler, reply_latency_sampler
    )
    # Deadlines, scalar op order:
    #   deadline         = ((T + L) - net) - rep
    #   governor (aware) = (T + L) - net
    #   governor (obliv) = T + server_budget
    tl = trace.arrival + cfg.latency_constraint_s
    dl = (tl - net) - rep
    gd = tl - net if probe.network_aware else trace.arrival + cfg.server_budget_s

    feedback = isinstance(probe, TimeTraderGovernor)
    if isinstance(probe, MaxFrequencyGovernor):
        base_policy = (float(probe.ladder.f_max), None, None, None, False)
    elif feedback:
        base_policy = (None, None, None, None, False)
    else:
        base_policy = (None, probe._tables, probe.vp_mode, probe.target_vp,
                       probe.reorders_queue)

    warmup, duration = cfg.warmup_s, cfg.duration_s
    done_ids, done_fin = [], []
    core_busy = np.empty(cfg.n_cores)
    core_freq = np.empty(cfg.n_cores)
    core_power = np.empty(cfg.n_cores)
    for c in range(cfg.n_cores):
        ids = np.flatnonzero(trace.core == c)
        gov = hook = None
        if feedback:
            # As in the scalar loop: the probe serves core 0, the
            # factory makes every other core's governor.
            gov = probe if c == 0 else point.governor_factory()
            hook = (net[ids].tolist(), rep[ids].tolist(), dl[ids].tolist())
        idx, fin, core_busy[c], core_freq[c], core_power[c] = _run_core(
            trace.arrival[ids].tolist(), trace.work[ids].tolist(), gd[ids].tolist(),
            hook, (*base_policy, gov), warmup, duration, speed, active_power,
            idle_watts, stats,
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
    in input order, each bit-identical to
    :func:`~repro.sim.runner.run_server_simulation` of the same point.
    Points may differ in any config field.  Points the lockstep engine
    cannot represent run through the scalar simulator transparently.
    """
    from ..power.models import CorePowerModel
    from ..sim.runner import run_server_simulation

    stats = {"n_events": 0, "n_decisions": 0, "n_fallback": 0}
    power_model = CorePowerModel()
    speed = _Memo(service_model.frequency_model.speed_factor)
    active_power = _Memo(power_model.active_power)
    results = []
    for point in points:
        probe = point.governor_factory()
        if _classify(probe, sleep_model, point.config.dispatch):
            results.append(_simulate_point(
                service_model, point, probe, network_latency_sampler,
                reply_latency_sampler, speed, active_power, power_model.idle_watts,
                stats,
            ))
            continue
        stats["n_fallback"] += 1
        results.append(run_server_simulation(
            service_model,
            point.governor_factory,
            point.config,
            network_latency_sampler=network_latency_sampler,
            governor_name=point.governor_name,
            sleep_model=sleep_model,
            reply_latency_sampler=reply_latency_sampler,
        ))

    if stats_out is not None:
        stats_out.update(stats)
        stats_out["n_points"] = len(points)
    return results
