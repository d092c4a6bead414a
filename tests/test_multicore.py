"""Multi-core server aggregation details."""

import pytest

from repro.errors import ConfigurationError
from repro.policies import MaxFrequencyGovernor
from repro.server import XEON_LADDER
from repro.sim import EventLoop
from tests.oracles.server import MultiCoreServer, Request


def make(service_model, n_cores=3, **kw):
    loop = EventLoop()
    server = MultiCoreServer(
        loop,
        service_model,
        lambda: MaxFrequencyGovernor(XEON_LADDER),
        n_cores=n_cores,
        seed_or_rng=1,
        **kw,
    )
    return loop, server


def req(rid, work=1e-3):
    return Request(rid=rid, arrival_time=0.0, work=work, deadline=1e9, governor_deadline=1e9)


class TestMultiCoreServer:
    def test_rejects_zero_cores(self, service_model):
        with pytest.raises(ConfigurationError):
            make(service_model, n_cores=0)

    def test_each_core_has_own_governor(self, service_model):
        _, server = make(service_model)
        governors = {id(core.governor) for core in server.cores}
        assert len(governors) == 3

    def test_completed_requests_sorted_by_finish(self, service_model):
        loop, server = make(service_model, n_cores=2)
        # Unequal works so finishes interleave across cores.
        for i, work in enumerate([3e-3, 1e-3, 2e-3, 1e-3]):
            loop.schedule(0.0, lambda r=req(i, work): server.submit(r))
        loop.run_to_completion()
        finished = server.completed_requests()
        times = [r.finish_time for r in finished]
        assert times == sorted(times)
        assert len(finished) == 4

    def test_cpu_power_sums_cores(self, service_model):
        loop, server = make(service_model)
        loop.run_until(1.0)
        # All idle: total = n_cores * idle power.
        assert server.cpu_power() == pytest.approx(3 * 1.0, rel=0.01)

    def test_total_power_adds_static(self, service_model):
        loop, server = make(service_model, static_watts=20.0)
        loop.run_until(1.0)
        assert server.total_power() == pytest.approx(server.cpu_power() + 20.0)

    def test_reset_statistics_clears_all_cores(self, service_model):
        loop, server = make(service_model)
        loop.schedule(0.0, lambda: server.submit(req(0, 5e-3)))
        loop.run_until(10e-3)
        server.reset_statistics()
        loop.run_until(20e-3)
        # After reset, all cores were idle for the measured window.
        for core in server.cores:
            assert core.busy_fraction == pytest.approx(0.0)

    def test_busy_fractions_shape(self, service_model):
        loop, server = make(service_model)
        assert len(server.busy_fractions()) == 3
