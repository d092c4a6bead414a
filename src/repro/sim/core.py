"""Single-core server simulator.

One CPU core serving a queue of search requests under a DVFS governor:

* work-conserving, non-preemptive service (a request, once started,
  runs to completion — but its *speed* may change mid-service when the
  governor reacts to arrivals);
* governor consulted at every arrival and departure instance, exactly
  the decision points of Section III-B, through a
  :class:`~repro.policies.base.QueueSnapshot` built at that instant;
* optional earliest-deadline-first queue ordering (EPRONS-Server);
* per-core energy metering: active power at the current frequency
  while busy, idle power otherwise.

Work accounting uses *reference work* (see
:mod:`repro.server.freqmodel`): at frequency ``f`` the core retires
``1 / speed_factor(f)`` units of reference work per second.

This event loop prices the points the lockstep engine
(:func:`repro.simfast.run_multipoint_simulation`) cannot represent:
the clairvoyant oracle, sleep models (TimeTrader with one included)
and JSQ dispatch.  Its timer and ``on_complete`` wiring is also the
oracle the lockstep engine's TimeTrader path is held to, and the
oracle tests drive it too.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..power.meter import EnergyMeter
from ..power.models import CorePowerModel
from ..policies.base import Governor, QueueSnapshot
from ..server.service import ServiceModel
from .engine import EventHandle, EventLoop
from .request import Request

__all__ = ["CoreSimulator"]


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
