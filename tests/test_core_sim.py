"""Single-core simulator: work conservation, energy accounting, and
agreement with queueing theory."""

import numpy as np
import pytest

from repro.netsim import mg1_mean_wait
from repro.policies import MaxFrequencyGovernor
from repro.server import XEON_LADDER, default_service_model
from repro.sim import EventLoop
from tests.oracles.server import CoreSimulator, Request
from repro.units import GHZ


def make_request(rid, arrival, work, deadline=1e9):
    return Request(
        rid=rid,
        arrival_time=arrival,
        work=work,
        deadline=deadline,
        governor_deadline=deadline,
    )


@pytest.fixture()
def core(service_model):
    loop = EventLoop()
    gov = MaxFrequencyGovernor(XEON_LADDER)
    return loop, CoreSimulator(loop, service_model, gov)


class TestBasicService:
    def test_single_request_completes(self, core, service_model):
        loop, c = core
        r = make_request(0, 0.0, 4e-3)
        loop.schedule(0.0, lambda: c.submit(r))
        loop.run_to_completion()
        # At f_max the speed factor is 1: service time == work.
        assert r.finish_time == pytest.approx(4e-3)
        assert r.sojourn == pytest.approx(4e-3)

    def test_fifo_order_without_reordering(self, core):
        loop, c = core
        rs = [make_request(i, 0.0, 1e-3) for i in range(3)]
        for r in rs:
            loop.schedule(0.0, lambda r=r: c.submit(r))
        loop.run_to_completion()
        finishes = [r.finish_time for r in rs]
        assert finishes == sorted(finishes)
        assert finishes[-1] == pytest.approx(3e-3)

    def test_service_slower_at_low_frequency(self, service_model):
        class MinFreq(MaxFrequencyGovernor):
            def select_frequency(self, snapshot):
                return self.ladder.f_min

        loop = EventLoop()
        c = CoreSimulator(loop, service_model, MinFreq(XEON_LADDER))
        r = make_request(0, 0.0, 4e-3)
        loop.schedule(0.0, lambda: c.submit(r))
        loop.run_to_completion()
        speed = service_model.frequency_model.speed_factor(1.2 * GHZ)
        assert r.finish_time == pytest.approx(4e-3 * speed)

    def test_busy_fraction(self, core):
        loop, c = core
        loop.schedule(0.0, lambda: c.submit(make_request(0, 0.0, 2e-3)))
        loop.run_until(10e-3)
        assert c.busy_fraction == pytest.approx(0.2)

    def test_mean_busy_frequency(self, core):
        loop, c = core
        loop.schedule(0.0, lambda: c.submit(make_request(0, 0.0, 1e-3)))
        loop.run_to_completion()
        assert c.mean_busy_frequency == pytest.approx(2.7 * GHZ)


class TestEnergyAccounting:
    def test_idle_power_when_empty(self, core):
        loop, c = core
        loop.run_until(1.0)
        assert c.average_power() == pytest.approx(c.power_model.idle_watts)

    def test_busy_idle_blend(self, core, service_model):
        loop, c = core
        loop.schedule(0.0, lambda: c.submit(make_request(0, 0.0, 5e-3)))
        loop.run_until(10e-3)
        active = c.power_model.active_power(2.7 * GHZ)
        idle = c.power_model.idle_watts
        assert c.average_power() == pytest.approx(0.5 * active + 0.5 * idle)


class TestAgainstQueueingTheory:
    def test_mg1_mean_sojourn_at_fixed_frequency(self, service_model):
        """DES at fixed f_max must match the Pollaczek-Khinchine M/G/1
        prediction for the synthetic service distribution."""
        rho = 0.5
        rate = service_model.arrival_rate_for_utilization(rho)
        mean_s = service_model.mean_work()
        scv = service_model.distribution.variance() / mean_s**2

        loop = EventLoop()
        c = CoreSimulator(loop, service_model, MaxFrequencyGovernor(XEON_LADDER))
        rng = np.random.default_rng(42)
        works = service_model.sample_work(30_000, rng)
        gaps = rng.exponential(1.0 / rate, size=30_000)
        arrivals = np.cumsum(gaps)
        for i, (t, w) in enumerate(zip(arrivals, works)):
            loop.schedule(float(t), lambda i=i, t=t, w=w: c.submit(make_request(i, float(t), float(w))))
        loop.run_to_completion()

        sojourns = np.array([r.sojourn for r in c.completed if r.arrival_time > 1.0])
        expected = mg1_mean_wait(rate, mean_s, scv) + mean_s
        assert sojourns.mean() == pytest.approx(expected, rel=0.08)
