"""Server-simulation runner: deadline wiring, SLA accounting, and the
paper's qualitative power ordering (integration-level)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.policies import (
    EpronsServerGovernor,
    MaxFrequencyGovernor,
    RubikGovernor,
    RubikPlusGovernor,
)
from repro.sim import ServerSimConfig, constant_latency_sampler, run_server_simulation


def cfg(**kw):
    defaults = dict(
        utilization=0.3,
        latency_constraint_s=25e-3,
        n_cores=2,
        duration_s=10.0,
        warmup_s=1.0,
        seed=11,
    )
    defaults.update(kw)
    return ServerSimConfig(**defaults)


class TestConfig:
    def test_server_budget(self):
        c = cfg(latency_constraint_s=30e-3, network_budget_s=5e-3)
        assert c.server_budget_s == pytest.approx(25e-3)

    def test_invalid_utilization(self):
        with pytest.raises(ConfigurationError):
            cfg(utilization=0.0)
        with pytest.raises(ConfigurationError):
            cfg(utilization=1.0)

    def test_network_budget_bounds(self):
        with pytest.raises(ConfigurationError):
            cfg(latency_constraint_s=5e-3, network_budget_s=5e-3)

    def test_warmup_bounds(self):
        with pytest.raises(ConfigurationError):
            cfg(warmup_s=20.0, duration_s=10.0)

    @pytest.mark.parametrize(
        "field,value,match",
        [("dispatch", "fifo", "dispatch"), ("n_cores", 0, "n_cores")],
    )
    def test_dispatch_and_core_count_validated(self, field, value, match):
        """Rejected up front, so the DES (which only knows random and
        round-robin dispatch) cannot run them as something else."""
        with pytest.raises(ConfigurationError, match=match):
            cfg(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("warmup_s", float("nan")),
            ("latency_constraint_s", float("inf")),
        ],
    )
    def test_non_finite_times_rejected(self, field, value):
        """A non-finite run length would never end the DES's trace
        extraction; only the config is built here, no DES runs."""
        with pytest.raises(ConfigurationError):
            cfg(**{field: value})

    @pytest.mark.parametrize("watts", [float("nan"), -5.0, float("inf")])
    def test_static_watts_must_be_finite_and_non_negative(self, watts):
        """The value goes straight into the server's power; only the
        config is built here, no DES runs."""
        with pytest.raises(ConfigurationError, match="static_watts"):
            ServerSimConfig(utilization=0.3, latency_constraint_s=0.03, static_watts=watts)

    def test_zero_static_watts_accepted(self):
        assert cfg(static_watts=0.0).static_watts == 0.0


class TestSampler:
    def test_constant_sampler(self):
        s = constant_latency_sampler(2e-3)
        assert np.all(s(5, None) == 2e-3)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            constant_latency_sampler(-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, latency):
        with pytest.raises(ConfigurationError, match="finite"):
            constant_latency_sampler(latency)

    @pytest.mark.parametrize("latency", [-1e-3, float("nan"), float("inf")])
    def test_invalid_sampler_output_rejected(self, service_model, ladder, latency):
        """A NaN or infinite latency is no more valid than a negative
        one: without the check an eprons-server point reports
        ``p95=nan`` and a 0 % violation rate under NaN, and dies in an
        ``OverflowError`` deep in a decision under inf."""

        def sampler(n, rng):
            return np.full(n, latency)

        with pytest.raises(ConfigurationError, match="negative or non-finite"):
            run_server_simulation(
                service_model, lambda: EpronsServerGovernor(service_model, ladder),
                cfg(duration_s=2.0), network_latency_sampler=sampler,
            )

    def test_returns_float_dtype(self):
        s = constant_latency_sampler(2e-3)
        assert s(5, None).dtype == np.float64
        assert s(0, None).dtype == np.float64  # even when empty

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            constant_latency_sampler(2e-3)(-1, None)


class TestRunner:
    def test_deterministic(self, service_model, ladder):
        a = run_server_simulation(service_model, lambda: MaxFrequencyGovernor(ladder), cfg())
        b = run_server_simulation(service_model, lambda: MaxFrequencyGovernor(ladder), cfg())
        assert a.cpu_power_watts == pytest.approx(b.cpu_power_watts)
        assert a.n_completed == b.n_completed
        assert a.total_latency.p95 == pytest.approx(b.total_latency.p95)

    def test_throughput_matches_load(self, service_model, ladder):
        c = cfg(duration_s=20.0)
        r = run_server_simulation(service_model, lambda: MaxFrequencyGovernor(ladder), c)
        rate = service_model.arrival_rate_for_utilization(c.utilization)
        expected = rate * c.n_cores * (c.duration_s - c.warmup_s)
        assert r.n_completed == pytest.approx(expected, rel=0.1)

    def test_total_latency_includes_network(self, service_model, ladder):
        c = cfg()
        r = run_server_simulation(
            service_model,
            lambda: MaxFrequencyGovernor(ladder),
            c,
            network_latency_sampler=constant_latency_sampler(4e-3),
        )
        # Every request carries exactly 4 ms of network latency.
        assert r.total_latency.p50 >= r.sojourn.p50 + 4e-3 - 1e-9

    def test_oblivious_governor_sees_fixed_budget(self, service_model, ladder):
        """Rubik's deadlines do not move with actual network latency;
        its power is therefore identical under different constant
        network latencies (only SLA accounting changes)."""
        a = run_server_simulation(
            service_model,
            lambda: RubikGovernor(service_model, ladder),
            cfg(),
            network_latency_sampler=constant_latency_sampler(1e-3),
        )
        b = run_server_simulation(
            service_model,
            lambda: RubikGovernor(service_model, ladder),
            cfg(),
            network_latency_sampler=constant_latency_sampler(4e-3),
        )
        assert a.cpu_power_watts == pytest.approx(b.cpu_power_watts, rel=1e-6)

    def test_aware_governor_uses_slack(self, service_model, ladder):
        """Rubik+ runs slower when the network leaves it more slack."""
        fast_net = run_server_simulation(
            service_model,
            lambda: RubikPlusGovernor(service_model, ladder),
            cfg(),
            network_latency_sampler=constant_latency_sampler(0.5e-3),
        )
        slow_net = run_server_simulation(
            service_model,
            lambda: RubikPlusGovernor(service_model, ladder),
            cfg(),
            network_latency_sampler=constant_latency_sampler(4.5e-3),
        )
        assert fast_net.cpu_power_watts < slow_net.cpu_power_watts

    def test_no_completions_raises(self, service_model, ladder):
        with pytest.raises(ConfigurationError):
            run_server_simulation(
                service_model,
                lambda: MaxFrequencyGovernor(ladder),
                cfg(utilization=0.001, duration_s=0.5, warmup_s=0.45),
            )


class TestPaperOrdering:
    """Fig. 12(a)'s qualitative result at one operating point."""

    @pytest.fixture(scope="class")
    def results(self, service_model, ladder):
        c = ServerSimConfig(
            utilization=0.3,
            latency_constraint_s=25e-3,
            n_cores=2,
            duration_s=20.0,
            warmup_s=2.0,
            seed=17,
        )
        out = {}
        out["no-pm"] = run_server_simulation(
            service_model, lambda: MaxFrequencyGovernor(ladder), c
        )
        out["rubik"] = run_server_simulation(
            service_model, lambda: RubikGovernor(service_model, ladder), c
        )
        out["rubik+"] = run_server_simulation(
            service_model, lambda: RubikPlusGovernor(service_model, ladder), c
        )
        out["eprons"] = run_server_simulation(
            service_model, lambda: EpronsServerGovernor(service_model, ladder), c
        )
        return out

    def test_everyone_meets_sla(self, results):
        for name, r in results.items():
            assert r.meets_sla, f"{name} missed SLA: p95={r.total_latency.p95}"

    def test_power_ordering(self, results):
        assert results["eprons"].cpu_power_watts <= results["rubik+"].cpu_power_watts
        assert results["rubik+"].cpu_power_watts <= results["rubik"].cpu_power_watts
        assert results["rubik"].cpu_power_watts < results["no-pm"].cpu_power_watts

    def test_dvfs_saves_meaningfully(self, results):
        saving = 1 - results["eprons"].cpu_power_watts / results["no-pm"].cpu_power_watts
        assert saving > 0.2
