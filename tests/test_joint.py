"""Joint operating-point pricing and the EPRONS sweep (core package)."""

import pytest

from repro.consolidation import route_on_subnet
from repro.core import (
    EpronsDatacenter,
    JointSimParams,
    PowerProfile,
    ProfileTable,
    evaluate_operating_point,
)
from repro.errors import ConfigurationError
from repro.policies import EpronsServerGovernor, MaxFrequencyGovernor
from repro.server import XEON_LADDER
from repro.topology import aggregation_policy
from repro.workloads import SearchWorkload

FAST = JointSimParams(sim_cores=1, duration_s=6.0, warmup_s=1.0)


@pytest.fixture(scope="module")
def workload(ft4):
    return SearchWorkload(ft4)


@pytest.fixture(scope="module")
def light_setup(workload):
    traffic = workload.traffic(0.1, seed_or_rng=1)
    consolidation = route_on_subnet(
        aggregation_policy(workload.topology, 2), traffic
    )
    return traffic, consolidation


class TestJointSimParams:
    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            JointSimParams(n_servers=0)
        with pytest.raises(ConfigurationError):
            JointSimParams(warmup_s=10.0, duration_s=5.0)

    def test_infinite_duration_rejected(self):
        """An endless run would never finish its DES; only the params
        are built here."""
        with pytest.raises(ConfigurationError):
            JointSimParams(duration_s=float("inf"))

    @pytest.mark.parametrize("watts", [float("nan"), -5.0, float("inf")])
    def test_static_watts_must_be_finite_and_non_negative(self, watts):
        with pytest.raises(ConfigurationError, match="static_watts"):
            JointSimParams(static_watts=watts)


class TestEvaluateOperatingPoint:
    def test_breakdown_consistency(self, workload, light_setup):
        traffic, consolidation = light_setup
        ev = evaluate_operating_point(
            workload,
            traffic,
            consolidation,
            0.3,
            lambda: EpronsServerGovernor(workload.service_model, XEON_LADDER),
            params=FAST,
        )
        b = ev.breakdown
        assert b.total_watts == pytest.approx(b.network_watts + b.server_watts)
        assert b.server_static_watts == pytest.approx(16 * 20.0)
        assert ev.n_switches_on == 14

    def test_network_power_scales_with_subnet(self, workload):
        traffic = workload.traffic(0.1, seed_or_rng=1)
        evs = {}
        for level in (0, 3):
            consolidation = route_on_subnet(
                aggregation_policy(workload.topology, level), traffic
            )
            evs[level] = evaluate_operating_point(
                workload,
                traffic,
                consolidation,
                0.3,
                lambda: MaxFrequencyGovernor(XEON_LADDER),
                params=FAST,
            )
        assert evs[3].breakdown.network_watts < evs[0].breakdown.network_watts
        # Same governor, same load: server power barely differs.
        assert evs[3].breakdown.server_cpu_watts == pytest.approx(
            evs[0].breakdown.server_cpu_watts, rel=0.05
        )

    def test_eprons_governor_cheaper_than_nopm(self, workload, light_setup):
        traffic, consolidation = light_setup
        common = dict(params=FAST)
        nopm = evaluate_operating_point(
            workload, traffic, consolidation, 0.3,
            lambda: MaxFrequencyGovernor(XEON_LADDER), **common
        )
        epr = evaluate_operating_point(
            workload, traffic, consolidation, 0.3,
            lambda: EpronsServerGovernor(workload.service_model, XEON_LADDER), **common
        )
        assert epr.breakdown.server_cpu_watts < nopm.breakdown.server_cpu_watts
        assert epr.sla_met


class TestEpronsDatacenter:
    def test_light_background_picks_minimal_subnet(self, workload):
        dc = EpronsDatacenter(workload, params=FAST)
        cand, ev = dc.optimize(0.05, utilization=0.3)
        assert cand.name == "aggregation-3"
        assert ev.sla_met

    def test_heavy_background_keeps_switches_on(self, workload):
        """The paper's headline: at heavy background, EPRONS deliberately
        runs a larger subnet because the server savings dominate."""
        dc = EpronsDatacenter(workload, params=FAST)
        cand_light, _ = dc.optimize(0.05, utilization=0.3)
        cand_heavy, ev = dc.optimize(0.5, utilization=0.3)
        light_level = int(cand_light.name.split("-")[1])
        heavy_level = int(cand_heavy.name.split("-")[1])
        assert heavy_level < light_level
        assert ev.sla_met

    def test_candidates_skip_infeasible(self, workload):
        dc = EpronsDatacenter(workload, params=FAST)
        names = [c.name for c in dc.candidates(0.5)]
        assert "aggregation-0" in names
        assert len(names) < 4  # deep aggregations cannot carry 50% elephants

    def test_scale_factor_candidates(self, workload):
        dc = EpronsDatacenter(workload, levels=(), scale_factors=(1.0, 2.0), params=FAST)
        names = [c.name for c in dc.candidates(0.2)]
        assert names == ["K-1", "K-2"]

    def test_no_candidates_configured(self, workload):
        with pytest.raises(ConfigurationError):
            EpronsDatacenter(workload, levels=(), scale_factors=())


class TestPowerProfile:
    def test_build_and_interpolate(self, workload, light_setup):
        traffic, consolidation = light_setup
        profile = PowerProfile.build(
            workload,
            traffic,
            consolidation,
            lambda: MaxFrequencyGovernor(XEON_LADDER),
            util_grid=(0.1, 0.3, 0.5),
            params=FAST,
        )
        # Power grows with utilization; interpolation is bounded by the
        # grid values.
        assert profile.per_core_power(0.5) > profile.per_core_power(0.1)
        mid = profile.per_core_power(0.2)
        assert profile.per_core_power(0.1) <= mid <= profile.per_core_power(0.3)
        # Clamped outside the grid.
        assert profile.per_core_power(0.01) == pytest.approx(profile.per_core_power(0.1))

    def test_sla_check(self, workload, light_setup):
        traffic, consolidation = light_setup
        profile = PowerProfile.build(
            workload,
            traffic,
            consolidation,
            lambda: MaxFrequencyGovernor(XEON_LADDER),
            util_grid=(0.1, 0.3),
            params=FAST,
        )
        assert profile.sla_met(0.2)

    def test_grid_validation(self):
        import numpy as np

        with pytest.raises(ConfigurationError):
            PowerProfile(
                utilizations=np.array([0.3]),
                per_core_watts=np.array([1.0]),
                p95_latency_s=np.array([0.01]),
                latency_constraint_s=0.03,
                governor="x",
            )

    @pytest.mark.parametrize("grid", [(0.3,), (0.3, 0.3), (0.45, 0.3)])
    def test_bad_grid_rejected_before_any_des(self, workload, light_setup, monkeypatch, grid):
        import repro.sim.runner
        import repro.simfast.multipoint

        def no_des(*args, **kwargs):
            raise AssertionError("a DES ran before the grid was checked")

        monkeypatch.setattr(repro.simfast.multipoint, "run_multipoint_simulation", no_des)
        monkeypatch.setattr(repro.sim.runner, "run_server_simulation", no_des)
        traffic, consolidation = light_setup
        with pytest.raises(ConfigurationError, match="grid"):
            PowerProfile.build(
                workload,
                traffic,
                consolidation,
                lambda: MaxFrequencyGovernor(XEON_LADDER),
                util_grid=grid,
                params=FAST,
            )

    def test_profile_table_caches(self):
        table = ProfileTable()
        calls = []

        def builder():
            calls.append(1)
            return "profile"

        assert table.get_or_build(("a", 1), builder) == "profile"
        assert table.get_or_build(("a", 1), builder) == "profile"
        assert len(calls) == 1
        assert len(table) == 1
