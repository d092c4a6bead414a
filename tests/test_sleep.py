"""Core sleep states (PowerNap-family baseline support).

The state machine's unit tests drive the reference core in
``tests/oracles/server.py``; ``tests/test_multipoint.py`` holds the
production per-core loop to it.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.policies import EpronsServerGovernor, MaxFrequencyGovernor
from repro.power import POWERNAP_SLEEP, SleepStateModel
from repro.server import XEON_LADDER
from repro.sim import EventLoop, ServerSimConfig, run_server_simulation
from tests.oracles.server import CoreSimulator, Request


def make_request(rid, arrival, work, deadline=1e9):
    return Request(
        rid=rid, arrival_time=arrival, work=work,
        deadline=deadline, governor_deadline=deadline,
    )


def sleepy_core(service_model, sleep=None):
    loop = EventLoop()
    core = CoreSimulator(
        loop,
        service_model,
        MaxFrequencyGovernor(XEON_LADDER),
        sleep_model=sleep or SleepStateModel(sleep_watts=0.0, entry_latency_s=1e-3, wake_latency_s=2e-3),
    )
    return loop, core


class TestSleepStateModel:
    def test_defaults(self):
        m = POWERNAP_SLEEP
        assert m.sleep_watts < 1.0
        assert m.entry_latency_s > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SleepStateModel(sleep_watts=-1.0)
        with pytest.raises(ConfigurationError):
            SleepStateModel(wake_latency_s=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["sleep_watts", "entry_latency_s", "wake_latency_s"])
    def test_non_finite_rejected(self, field, value):
        """NaN would pass a ``< 0`` check and surface mid-run (a NaN
        wake time, a NaN power); an infinite entry latency would
        silently never sleep."""
        with pytest.raises(ConfigurationError, match=field):
            SleepStateModel(**{field: value})


class TestCoreSleepBehavior:
    def test_idle_core_descends_to_sleep_power(self, service_model):
        loop, core = sleepy_core(service_model)
        loop.schedule(0.0, lambda: core.submit(make_request(0, 0.0, 1e-3)))
        loop.run_until(1.0)
        # 1 ms busy, 1 ms entry at idle power, then ~998 ms near zero.
        avg = core.average_power()
        assert avg < 0.1 * core.power_model.idle_watts

    def test_wake_latency_delays_service(self, service_model):
        loop, core = sleepy_core(service_model)
        loop.schedule(0.0, lambda: core.submit(make_request(0, 0.0, 1e-3)))
        r2 = make_request(1, 0.5, 1e-3)
        loop.schedule(0.5, lambda: core.submit(r2))
        loop.run_to_completion()
        # Woken from deep sleep: starts wake_latency (2 ms) late.
        assert r2.start_time == pytest.approx(0.5 + 2e-3)
        assert r2.finish_time == pytest.approx(0.5 + 2e-3 + 1e-3)

    def test_arrival_during_entry_aborts_sleep(self, service_model):
        loop, core = sleepy_core(service_model)
        loop.schedule(0.0, lambda: core.submit(make_request(0, 0.0, 1e-3)))
        # Arrives 0.5 ms after idle begins — inside the 1 ms entry.
        r2 = make_request(1, 1.5e-3, 1e-3)
        loop.schedule(1.5e-3, lambda: core.submit(r2))
        loop.run_to_completion()
        assert r2.start_time == pytest.approx(1.5e-3)  # no wake penalty

    def test_arrivals_during_wake_queue_up(self, service_model):
        loop, core = sleepy_core(service_model)
        loop.schedule(0.0, lambda: core.submit(make_request(0, 0.0, 1e-3)))
        r2 = make_request(1, 0.5, 1e-3)
        r3 = make_request(2, 0.5005, 1e-3)
        loop.schedule(0.5, lambda: core.submit(r2))
        loop.schedule(0.5005, lambda: core.submit(r3))
        loop.run_to_completion()
        assert r2.start_time == pytest.approx(0.5 + 2e-3)
        assert r3.start_time == pytest.approx(r2.finish_time)

    def test_no_sleep_without_model(self, service_model):
        loop = EventLoop()
        core = CoreSimulator(loop, service_model, MaxFrequencyGovernor(XEON_LADDER))
        loop.schedule(0.0, lambda: core.submit(make_request(0, 0.0, 1e-3)))
        loop.run_until(1.0)
        assert core.average_power() == pytest.approx(
            core.power_model.idle_watts, rel=0.01
        )


class TestSleepAtServerLevel:
    def test_powernap_saves_at_low_load(self, service_model, ladder):
        cfg = ServerSimConfig(
            utilization=0.1, latency_constraint_s=30e-3,
            n_cores=2, duration_s=10.0, warmup_s=1.0, seed=4,
        )
        plain = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), cfg
        )
        nap = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), cfg,
            sleep_model=POWERNAP_SLEEP,
        )
        assert nap.cpu_power_watts < 0.6 * plain.cpu_power_watts
        assert nap.meets_sla

    def test_hybrid_beats_both_families(self, service_model, ladder):
        cfg = ServerSimConfig(
            utilization=0.2, latency_constraint_s=30e-3,
            n_cores=2, duration_s=10.0, warmup_s=1.0, seed=4,
        )
        dvfs = run_server_simulation(
            service_model, lambda: EpronsServerGovernor(service_model, ladder), cfg
        )
        nap = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), cfg,
            sleep_model=POWERNAP_SLEEP,
        )
        hybrid = run_server_simulation(
            service_model, lambda: EpronsServerGovernor(service_model, ladder), cfg,
            sleep_model=POWERNAP_SLEEP,
        )
        assert hybrid.cpu_power_watts < dvfs.cpu_power_watts
        assert hybrid.cpu_power_watts < nap.cpu_power_watts
        assert hybrid.meets_sla
