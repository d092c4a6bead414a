"""Reference implementations of the server DES and the VP decision.

Production prices every server point on the lockstep per-core loop
(:func:`repro.simfast.run_multipoint_simulation`), and VP governors
decide there on the tabulated :mod:`repro.simfast` engine.  The code
here is what both were derived from, kept only as the executable
specification; every result must be bit-identical to production
(``tests/test_multipoint.py`` and ``tests/test_simfast_equivalence.py``
enforce it).

The VP decision (Section III-B):

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
  binary-searching the ladder;
* :func:`scan_decide_point` — the tabulated decision as a literal
  scalar scan of the ladder (top rung first as the ``f_max`` gate, then
  upward from rung 0), the reference for the warm-started walk of
  :meth:`~repro.simfast.tables.VPTableEngine.decide_point`.

The event-heap server DES, on :class:`~repro.sim.engine.EventLoop`:

* :class:`Request` — one request's record and runtime state;
* :class:`CoreSimulator` — one core, its queue, governor, energy meter
  and optional PowerNap sleep state machine;
* :class:`MultiCoreServer` — cores behind a random or round-robin
  dispatcher;
* :func:`scalar_server_simulation` — the open-loop Poisson harness,
  the reference for :func:`repro.sim.runner.run_server_simulation`.

A reference governor only overrides the snapshot decision, so oracle
runs must go through :func:`scalar_server_simulation`: production
prices any plain ``VPGovernor`` subclass on its tables and would never
call the mixture (``tests/test_simfast_equivalence.py`` guards this).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.policies.base import Governor, QueueSnapshot, VPGovernor
from repro.power.meter import EnergyMeter
from repro.power.models import CorePowerModel, ServerPowerModel
from repro.rng import ensure_rng, spawn
from repro.server.distributions import ConvolutionCache, WorkDistribution
from repro.server.service import ServiceModel
from repro.sim.engine import EventHandle, EventLoop
from repro.sim.runner import (
    DISPATCH_POLICIES,
    ServerSimConfig,
    ServerSimResult,
    constant_latency_sampler,
)
from repro.stats import LatencySummary

__all__ = [
    "EquivalentQueue",
    "reference_governor",
    "scan_decide_point",
    "Request",
    "CoreSimulator",
    "MultiCoreServer",
    "scalar_server_simulation",
]


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


def scan_decide_point(engine, deltas, offset, mode, target_vp) -> int:
    """Rung of the lowest ladder frequency whose VP metric meets
    ``target_vp`` (the top rung when even ``f_max`` fails).

    ``deltas`` is a list of Python floats laid out as for
    :meth:`~repro.simfast.tables.VPTableEngine.decide`.  The literal
    order of ``decide()``: the top rung gates the ``None -> f_max``
    fallback, then the upward scan returns the first satisfying rung,
    each element read with ``ndarray.item`` and accumulated left to
    right, so every float matches the vectorized decision for queues
    shorter than 8.
    """
    n = len(deltas)
    if n >= 8:
        raise ConfigurationError("the scalar scan covers queues shorter than 8")
    if offset is None:
        row0 = 1
        stack = engine.stack(None, n)
    else:
        row0 = 0
        stack = engine.stack(offset, n - 1)
    item = stack.tables.item
    hi = stack.width - 2
    top = engine.n_freqs - 1
    # A strictly negative head delta reads VP 1.0 at every rung.
    if offset is not None and deltas[0] < 0.0:
        seed, i0 = 1.0, 1
    else:
        seed, i0 = 0.0, 0
    gate = True
    for fi in (top, *range(top)):
        s = engine.speeds.item(fi)
        acc = seed
        for i, d in enumerate(deltas[i0:], start=row0 + i0):
            m = min(max(floor(d / s / engine.dx + 1e-9), -1), hi)
            v = item(i, m + 1)
            if mode == "max":
                acc = v if v > acc else acc
            else:
                acc += v
        if mode != "max":
            acc /= n
        if gate:
            gate = False
            if acc > target_vp:
                return top
        elif acc <= target_vp:
            return fi
    return top


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


@dataclass(slots=True)
class Request:
    """One search (sub-)request at a server core.

    Attributes
    ----------
    rid:
        Unique id within a simulation run.
    arrival_time:
        When the request entered the core's queue (s).
    work:
        The request's *actual* reference work (s at f_ref).  Hidden from
        governors — they only know the work distribution.
    deadline:
        Absolute server-side completion deadline used for SLA
        accounting: ``arrival + (constraint − network latency)``.
    governor_deadline:
        The deadline the governor is told.  Equal to ``deadline`` for
        network-slack-aware governors; ``arrival + server_budget`` for
        schemes that assume a fixed split (Rubik).
    network_latency:
        The request's sampled *request-path* network latency (s).
    reply_latency:
        The sampled *reply-path* latency (s); part of the end-to-end
        SLA but — per Section IV-C's conservative rule — never part of
        the slack a governor sees.
    """

    rid: int
    arrival_time: float
    work: float
    deadline: float
    governor_deadline: float
    network_latency: float = 0.0
    reply_latency: float = 0.0

    # Runtime state, owned by the core simulator.
    start_time: float | None = None
    finish_time: float | None = None
    remaining_work: float = 0.0

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ConfigurationError(f"request {self.rid}: negative work {self.work}")
        if self.network_latency < 0 or self.reply_latency < 0:
            raise ConfigurationError(f"request {self.rid}: negative network latency")
        self.remaining_work = self.work

    @property
    def completed_work(self) -> float:
        """Reference work retired so far."""
        return self.work - self.remaining_work

    @property
    def sojourn(self) -> float:
        """Server time in system (queueing + service); finished requests only."""
        if self.finish_time is None:
            raise ConfigurationError(f"request {self.rid} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def total_latency(self) -> float:
        """End-to-end latency: request path + server sojourn + reply."""
        return self.network_latency + self.sojourn + self.reply_latency

    @property
    def violated(self) -> bool:
        """True if the request finished past its (actual) deadline."""
        if self.finish_time is None:
            raise ConfigurationError(f"request {self.rid} has not finished")
        return self.finish_time > self.deadline + 1e-12


class CoreSimulator:
    """One core + queue + governor, attached to an :class:`EventLoop`."""

    def __init__(
        self,
        loop: EventLoop,
        service_model: ServiceModel,
        governor: Governor,
        power_model: CorePowerModel | None = None,
        core_id: int = 0,
        sleep_model=None,
    ):
        self.loop = loop
        self.service_model = service_model
        self.governor = governor
        self.power_model = power_model or CorePowerModel()
        self.core_id = core_id
        #: Optional :class:`~repro.power.sleep.SleepStateModel` — when
        #: set, an idle core descends into deep sleep (PowerNap-family
        #: baselines) and pays a wake latency on the next arrival.
        self.sleep_model = sleep_model
        self._asleep = False
        self._sleep_entry: EventHandle | None = None
        self._wake_pending = False

        self.queue: list[Request] = []
        self.in_service: Request | None = None
        self.frequency: float = 0.0  # meaningful only while busy
        self._service_started_at: float | None = None
        self._completion: EventHandle | None = None
        self.meter = EnergyMeter(self.power_model.idle_watts, loop.now)

        self.completed: list[Request] = []
        self._busy_time = 0.0
        self._weighted_freq_time = 0.0  # integral of frequency over busy time
        self._stats_start = loop.now

        if governor.timer_period_s is not None:
            self._schedule_timer()

    # -- public API --------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """A request arrives at the core (an arrival instance)."""
        self.queue.append(request)
        if self.governor.reorders_queue:
            self.queue.sort(key=lambda r: (r.governor_deadline, r.rid))
        if self.in_service is None:
            if self._wake_pending:
                return  # the scheduled wake will drain the queue
            if self._sleep_entry is not None:
                # Entry to deep sleep not yet complete: abort it and
                # serve immediately (no wake penalty was earned yet).
                EventLoop.cancel(self._sleep_entry)
                self._sleep_entry = None
            if self._asleep:
                self._begin_wake()
                return
            self._start_next()
        else:
            self._sync_in_service_progress()
            self._apply_frequency(self._ask_governor())

    @property
    def n_in_system(self) -> int:
        return len(self.queue) + (1 if self.in_service is not None else 0)

    @property
    def busy_fraction(self) -> float:
        """Fraction of measured time the core was serving a request."""
        elapsed = self.loop.now - self._stats_start
        return self._busy_time / elapsed if elapsed > 0 else 0.0

    def reset_statistics(self) -> None:
        """Discard accumulated power/busy statistics (end of warmup).

        In-flight and queued requests are unaffected; only the meters
        restart, so steady-state measurements exclude the ramp-in of
        feedback governors.
        """
        self._sync_in_service_progress()
        self._busy_time = 0.0
        self._weighted_freq_time = 0.0
        self._stats_start = self.loop.now
        self.meter.reset(self.loop.now)

    @property
    def mean_busy_frequency(self) -> float:
        """Time-average frequency while busy (0 if never busy)."""
        return self._weighted_freq_time / self._busy_time if self._busy_time > 0 else 0.0

    def average_power(self) -> float:
        """Average core power (W) up to the current simulation time."""
        self._sync_in_service_progress()
        return self.meter.average_power(self.loop.now)

    # -- internals ------------------------------------------------------------------

    def _snapshot(self) -> QueueSnapshot:
        if self.in_service is not None:
            completed = self.in_service.completed_work
            deadline = self.in_service.governor_deadline
            works = (self.in_service.remaining_work,)
        else:
            completed = None
            deadline = None
            works = ()
        return QueueSnapshot(
            now=self.loop.now,
            in_service_completed_work=completed,
            in_service_deadline=deadline,
            queued_deadlines=tuple(r.governor_deadline for r in self.queue),
            actual_remaining_works=works + tuple(r.work for r in self.queue),
        )

    def _ask_governor(self) -> float:
        return self.governor.select_frequency(self._snapshot())

    def _start_next(self) -> None:
        if self.in_service is not None:
            raise SimulationError("core started a request while busy")
        if not self.queue:
            return
        request = self.queue.pop(0)
        request.start_time = self.loop.now
        self.in_service = request
        self._service_started_at = self.loop.now
        self._apply_frequency(self._ask_governor(), force=True)

    def _sync_in_service_progress(self) -> None:
        """Fold the elapsed service segment into the request's progress
        and the busy-time/energy accounting."""
        if self.in_service is None or self._service_started_at is None:
            self.meter.advance(self.loop.now)
            return
        elapsed = self.loop.now - self._service_started_at
        if elapsed > 0:
            speed = self.service_model.frequency_model.speed_factor(self.frequency)
            retired = elapsed / speed
            self.in_service.remaining_work = max(
                0.0, self.in_service.remaining_work - retired
            )
            self._busy_time += elapsed
            self._weighted_freq_time += elapsed * self.frequency
        self._service_started_at = self.loop.now
        self.meter.advance(self.loop.now)

    def _apply_frequency(self, frequency_hz: float, force: bool = False) -> None:
        """Switch the core to ``frequency_hz`` and reschedule completion."""
        if self.in_service is None:
            raise SimulationError("cannot set a service frequency on an idle core")
        if frequency_hz <= 0:
            raise SimulationError(f"governor returned invalid frequency {frequency_hz}")
        if not force and abs(frequency_hz - self.frequency) < 1e-6:
            return
        self.frequency = frequency_hz
        self.meter.set_power(self.power_model.active_power(frequency_hz), self.loop.now)
        if self._completion is not None:
            EventLoop.cancel(self._completion)
        speed = self.service_model.frequency_model.speed_factor(frequency_hz)
        remaining_time = self.in_service.remaining_work * speed
        self._completion = self.loop.schedule_after(remaining_time, self._complete)

    def _complete(self) -> None:
        """Departure instance: the in-service request finishes."""
        request = self.in_service
        if request is None:
            raise SimulationError("completion fired on an idle core")
        self._sync_in_service_progress()
        request.remaining_work = 0.0
        request.finish_time = self.loop.now
        self.completed.append(request)
        self.governor.on_complete(
            total_latency_s=request.total_latency,
            deadline_met=not request.violated,
            now=self.loop.now,
        )
        self.in_service = None
        self._service_started_at = None
        self._completion = None
        if self.queue:
            self._start_next()
        else:
            self.frequency = 0.0
            self.meter.set_power(self.power_model.idle_watts, self.loop.now)
            if self.sleep_model is not None:
                self._sleep_entry = self.loop.schedule_after(
                    self.sleep_model.entry_latency_s, self._enter_sleep
                )

    def _enter_sleep(self) -> None:
        self._sleep_entry = None
        self._asleep = True
        self.meter.set_power(self.sleep_model.sleep_watts, self.loop.now)

    def _begin_wake(self) -> None:
        """Start the wake transition of a sleeping core."""
        self._asleep = False
        self._wake_pending = True
        # The wake transition itself draws idle-level power.
        self.meter.set_power(self.power_model.idle_watts, self.loop.now)
        self.loop.schedule_fast_after(self.sleep_model.wake_latency_s, self._finish_wake)

    def _finish_wake(self) -> None:
        self._wake_pending = False
        if self.queue and self.in_service is None:
            self._start_next()

    def _schedule_timer(self) -> None:
        period = self.governor.timer_period_s
        assert period is not None

        def fire() -> None:
            self.governor.on_timer(self.loop.now)
            if self.in_service is not None:
                self._sync_in_service_progress()
                self._apply_frequency(self._ask_governor())
            self.loop.schedule_fast_after(period, fire)

        self.loop.schedule_fast_after(period, fire)


class MultiCoreServer:
    """``n_cores`` cores + governors behind a request dispatcher.

    Dispatch disciplines:

    * ``"random"`` (default) — uniform random core; splits the server's
      Poisson stream into independent per-core Poisson streams, the
      per-core-queue model the paper's governors assume;
    * ``"round-robin"`` — cyclic; thins each core's arrival stream into
      a more regular (Erlang) process.
    """

    def __init__(
        self,
        loop: EventLoop,
        service_model: ServiceModel,
        governor_factory,
        n_cores: int = 12,
        core_power_model: CorePowerModel | None = None,
        static_watts: float = 20.0,
        seed_or_rng=None,
        server_id: int = 0,
        sleep_model=None,
        dispatch: str = "random",
    ):
        if n_cores <= 0:
            raise ConfigurationError(f"n_cores must be positive, got {n_cores}")
        if dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_POLICIES}, got {dispatch!r}"
            )
        self.loop = loop
        self.service_model = service_model
        self.n_cores = n_cores
        self.static_watts = static_watts
        self.server_id = server_id
        self._rng = ensure_rng(seed_or_rng)
        core_power_model = core_power_model or CorePowerModel()
        self.cores = [
            CoreSimulator(
                loop,
                service_model,
                governor_factory(),
                power_model=core_power_model,
                core_id=i,
                sleep_model=sleep_model,
            )
            for i in range(n_cores)
        ]
        self._power_model = ServerPowerModel(
            core_model=core_power_model, n_cores=n_cores, static_watts=static_watts
        )
        self.dispatch = dispatch
        self._rr_next = 0

    def submit(self, request: Request) -> CoreSimulator:
        """Dispatch a request to a core per the configured discipline."""
        if self.dispatch == "random":
            core = self.cores[int(self._rng.integers(self.n_cores))]
        else:  # round-robin
            core = self.cores[self._rr_next]
            self._rr_next = (self._rr_next + 1) % self.n_cores
        core.submit(request)
        return core

    # -- results -----------------------------------------------------------------

    def completed_requests(self) -> list[Request]:
        """All finished requests across cores, in completion order."""
        out: list[Request] = []
        for core in self.cores:
            out.extend(core.completed)
        out.sort(key=lambda r: (r.finish_time, r.rid))
        return out

    def cpu_power(self) -> float:
        """Average CPU package power (W) over the run so far."""
        return float(sum(core.average_power() for core in self.cores))

    def total_power(self) -> float:
        """Average whole-server power (W): static + CPU."""
        return self.static_watts + self.cpu_power()

    def busy_fractions(self) -> list[float]:
        return [core.busy_fraction for core in self.cores]

    def reset_statistics(self) -> None:
        """Discard every core's accumulated statistics (end of warmup)."""
        for core in self.cores:
            core.reset_statistics()


def scalar_server_simulation(
    service_model: ServiceModel,
    governor_factory,
    config: ServerSimConfig,
    network_latency_sampler=None,
    governor_name: str | None = None,
    sleep_model=None,
    reply_latency_sampler=None,
    stats_out: dict | None = None,
) -> ServerSimResult:
    """Simulate one server under one governor and one load level.

    ``governor_factory()`` must return a fresh
    :class:`~repro.policies.base.Governor` per call (one per core).
    ``network_latency_sampler(n, rng)`` returns per-request network
    latencies; ``None`` means a constant latency equal to half the
    network budget (an uncongested network).  ``sleep_model`` attaches a
    :class:`~repro.power.sleep.SleepStateModel` to every core
    (PowerNap-family baselines and hybrids).

    This is the event-heap reference for
    :func:`repro.sim.runner.run_server_simulation`: same arguments,
    bit-identical results.  It builds a :class:`MultiCoreServer` whose
    cores decide from queue snapshots, so it also drives governors the
    production engine would price on its tables (the mixture
    :func:`reference_governor` classes).

    ``stats_out``, when given a dict, receives run instrumentation
    (``n_events`` processed by the event loop, ``n_decisions`` made by
    the governors).

    With a ``reply_latency_sampler``, each request also carries a
    reply-path latency: the end-to-end SLA (and the request's actual
    deadline) then accounts for ``request + sojourn + reply``, while
    governors keep seeing only the request slack — the paper's
    conservative Section IV-C rule.
    """
    rng = ensure_rng(config.seed)
    arrival_rng, latency_rng, work_rng, dispatch_rng = spawn(rng, 4)
    if network_latency_sampler is None:
        network_latency_sampler = constant_latency_sampler(config.network_budget_s / 2.0)

    loop = EventLoop()

    # The first instance is probed for its class configuration
    # (``network_aware``, ``name``) and then handed to core 0 — calling
    # the factory an extra throwaway time would silently advance
    # stateful factories.
    probe_governor = governor_factory()
    first_governor = [probe_governor]

    def _governor_factory():
        return first_governor.pop() if first_governor else governor_factory()

    server = MultiCoreServer(
        loop,
        service_model,
        _governor_factory,
        n_cores=config.n_cores,
        static_watts=config.static_watts,
        seed_or_rng=dispatch_rng,
        sleep_model=sleep_model,
        dispatch=config.dispatch,
    )

    # Server-level Poisson arrivals: rate = n_cores * per-core rate.
    per_core_rate = service_model.arrival_rate_for_utilization(config.utilization)
    rate = per_core_rate * config.n_cores

    # Pre-draw in chunks to amortize RNG overhead; the buffers are
    # converted to plain lists once per refill so the per-arrival reads
    # are attribute-free C-level indexing (no numpy scalar boxing).
    chunk = 4096
    state = {"rid": 0, "i": chunk}  # force initial refill
    buffers: dict[str, list[float]] = {}

    def refill() -> None:
        netlat = np.asarray(network_latency_sampler(chunk, latency_rng), dtype=float)
        if reply_latency_sampler is not None:
            replat = np.asarray(reply_latency_sampler(chunk, latency_rng), dtype=float)
        else:
            replat = np.zeros(chunk)
        if np.any(netlat < 0) or np.any(replat < 0):
            raise ConfigurationError("network latency sampler returned negative values")
        buffers["gaps"] = arrival_rng.exponential(1.0 / rate, size=chunk).tolist()
        buffers["work"] = np.asarray(
            service_model.sample_work(chunk, work_rng), dtype=float
        ).tolist()
        buffers["netlat"] = netlat.tolist()
        buffers["replat"] = replat.tolist()
        state["i"] = 0

    network_aware = probe_governor.network_aware

    def next_arrival() -> None:
        if state["i"] >= chunk:
            refill()
        i = state["i"]
        state["i"] += 1
        now = loop.now
        net_latency = buffers["netlat"][i]
        reply_latency = buffers["replat"][i]
        # Actual SLA deadline covers the full round trip; the governor's
        # deadline never includes the reply (request slack only).
        deadline = now + config.latency_constraint_s - net_latency - reply_latency
        governor_deadline = (
            now + config.latency_constraint_s - net_latency
            if network_aware
            else now + config.server_budget_s
        )
        request = Request(
            rid=state["rid"],
            arrival_time=now,
            work=buffers["work"][i],
            deadline=deadline,
            governor_deadline=governor_deadline,
            network_latency=net_latency,
            reply_latency=reply_latency,
        )
        state["rid"] += 1
        server.submit(request)
        # The arrival chain is never cancelled: skip handle allocation.
        loop.schedule_fast_after(buffers["gaps"][i], next_arrival)

    refill()
    loop.schedule_fast_after(buffers["gaps"][state["i"]], next_arrival)
    state["i"] += 1
    # Simulate the warmup, then restart the power/busy meters so the
    # reported power is steady-state (feedback governors ramp in).
    loop.run_until(config.warmup_s)
    server.reset_statistics()
    loop.run_until(config.duration_s)

    if stats_out is not None:
        stats_out["n_events"] = loop.n_processed
        stats_out["n_decisions"] = sum(
            getattr(core.governor, "n_decisions", 0) for core in server.cores
        )

    # One pass over completed requests into a preallocated array, then
    # vectorized latency/violation math — no per-request property calls
    # or repeated list comprehensions.
    all_completed = server.completed_requests()
    fields = np.empty((len(all_completed), 4))
    n = 0
    warmup = config.warmup_s
    for r in all_completed:
        if r.arrival_time >= warmup:
            row = fields[n]
            row[0] = r.arrival_time
            row[1] = r.finish_time
            row[2] = r.network_latency + r.reply_latency
            row[3] = r.deadline
            n += 1
    if n == 0:
        raise ConfigurationError(
            "no requests completed after warmup; increase duration or load"
        )
    fields = fields[:n]
    sojourns = fields[:, 1] - fields[:, 0]
    totals = sojourns + fields[:, 2]
    violations = fields[:, 1] > fields[:, 3] + 1e-12
    busy = np.array(server.busy_fractions())
    freqs = np.array([c.mean_busy_frequency for c in server.cores])
    busy_total = busy.sum()
    mean_freq = float(np.dot(busy, freqs) / busy_total) if busy_total > 0 else 0.0

    return ServerSimResult(
        governor=governor_name or probe_governor.name,
        config=config,
        n_completed=n,
        cpu_power_watts=server.cpu_power(),
        server_power_watts=server.total_power(),
        total_latency=LatencySummary.from_samples(totals),
        sojourn=LatencySummary.from_samples(sojourns),
        violation_rate=float(violations.mean()),
        mean_busy_frequency_hz=mean_freq,
        mean_busy_fraction=float(busy.mean()),
    )
