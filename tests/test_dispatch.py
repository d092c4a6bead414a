"""Dispatch disciplines at the multi-core server."""

import pytest

from repro.errors import ConfigurationError
from repro.policies import MaxFrequencyGovernor
from repro.server import XEON_LADDER
from repro.sim import EventLoop, ServerSimConfig, run_server_simulation
from tests.oracles.server import MultiCoreServer, Request


def make_server(service_model, dispatch, n_cores=4):
    loop = EventLoop()
    server = MultiCoreServer(
        loop,
        service_model,
        lambda: MaxFrequencyGovernor(XEON_LADDER),
        n_cores=n_cores,
        seed_or_rng=3,
        dispatch=dispatch,
    )
    return loop, server


def req(rid, t, work=1e-3):
    return Request(rid=rid, arrival_time=t, work=work, deadline=1e9, governor_deadline=1e9)


class TestDispatchDisciplines:
    def test_invalid_policy_rejected(self, service_model):
        with pytest.raises(ConfigurationError):
            make_server(service_model, "hash")

    def test_round_robin_cycles(self, service_model):
        loop, server = make_server(service_model, "round-robin")
        targets = [server.submit(req(i, 0.0)).core_id for i in range(8)]
        assert targets == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_all_policies_conserve_work(self, service_model):
        """Same offered load completes the same number of requests
        regardless of dispatch (work conservation)."""
        counts = {}
        for dispatch in ("random", "round-robin"):
            cfg = ServerSimConfig(
                utilization=0.3, latency_constraint_s=30e-3, n_cores=4,
                duration_s=10.0, warmup_s=1.0, seed=6, dispatch=dispatch,
            )
            counts[dispatch] = run_server_simulation(
                service_model, lambda: MaxFrequencyGovernor(XEON_LADDER), cfg
            ).n_completed
        values = list(counts.values())
        assert max(values) - min(values) < 0.05 * max(values)
