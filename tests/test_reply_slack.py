"""Reply-path accounting (Section IV-C's conservative slack rule)."""

import numpy as np
import pytest

from repro.policies import EpronsServerGovernor, MaxFrequencyGovernor, RubikPlusGovernor
from repro.sim import ServerSimConfig, constant_latency_sampler, run_server_simulation
from tests.oracles.server import Request


def cfg(**kw):
    defaults = dict(
        utilization=0.3,
        latency_constraint_s=30e-3,
        n_cores=2,
        duration_s=10.0,
        warmup_s=1.0,
        seed=11,
    )
    defaults.update(kw)
    return ServerSimConfig(**defaults)


class TestRequestReply:
    def test_total_latency_includes_reply(self):
        r = Request(
            rid=0, arrival_time=0.0, work=1e-3,
            deadline=1.0, governor_deadline=1.0,
            network_latency=2e-3, reply_latency=3e-3,
        )
        r.start_time = 0.0
        r.finish_time = 5e-3
        assert r.total_latency == pytest.approx(2e-3 + 5e-3 + 3e-3)

    def test_negative_reply_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Request(
                rid=0, arrival_time=0.0, work=1e-3,
                deadline=1.0, governor_deadline=1.0, reply_latency=-1.0,
            )


class TestRunnerReplyAccounting:
    def test_reply_shifts_total_latency(self, service_model, ladder):
        base = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), cfg(),
            network_latency_sampler=constant_latency_sampler(1e-3),
        )
        with_reply = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), cfg(),
            network_latency_sampler=constant_latency_sampler(1e-3),
            reply_latency_sampler=constant_latency_sampler(2e-3),
        )
        assert with_reply.total_latency.p50 == pytest.approx(
            base.total_latency.p50 + 2e-3, abs=2e-4
        )

    def test_governor_power_unchanged_by_reply(self, service_model, ladder):
        """Per the paper's conservative rule, the reply latency never
        reaches the governor: identical frequency decisions, identical
        power — only the SLA accounting moves."""
        a = run_server_simulation(
            service_model, lambda: RubikPlusGovernor(service_model, ladder), cfg(),
            network_latency_sampler=constant_latency_sampler(1e-3),
        )
        b = run_server_simulation(
            service_model, lambda: RubikPlusGovernor(service_model, ladder), cfg(),
            network_latency_sampler=constant_latency_sampler(1e-3),
            reply_latency_sampler=constant_latency_sampler(3e-3),
        )
        assert a.cpu_power_watts == pytest.approx(b.cpu_power_watts, rel=1e-9)
        assert b.violation_rate >= a.violation_rate

    def test_eprons_meets_sla_with_reply_accounting(self, service_model, ladder):
        r = run_server_simulation(
            service_model,
            lambda: EpronsServerGovernor(service_model, ladder),
            cfg(duration_s=15.0),
            network_latency_sampler=constant_latency_sampler(1.5e-3),
            reply_latency_sampler=constant_latency_sampler(1.5e-3),
        )
        assert r.meets_sla

    def test_negative_reply_sampler_rejected(self, service_model, ladder):
        from repro.errors import ConfigurationError

        def bad(n, rng):
            return np.full(n, -1.0)

        with pytest.raises(ConfigurationError):
            run_server_simulation(
                service_model, lambda: MaxFrequencyGovernor(ladder), cfg(),
                reply_latency_sampler=bad,
            )
