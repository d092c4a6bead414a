"""Delta consolidation: warm-start equivalence, churn classification,
fallback ladder and controller plumbing."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.consolidation import (
    DeltaConsolidator,
    GreedyConsolidator,
    validate_result,
)
from repro.consolidation.delta import (
    FALLBACK_CHURN,
    FALLBACK_COLD_START,
    FALLBACK_EXCLUSIONS,
    FALLBACK_INVALIDATED,
    FALLBACK_REFRESH,
    FALLBACK_ZERO_BOUND,
    MODE_DELTA,
    MODE_FULL,
)
from repro.control import SdnController, SlaGuardrail
from repro.errors import ConfigurationError
from repro.flows.dynamics import FlowChurnModel
from repro.flows.flow import Flow, FlowClass
from repro.flows.traffic import TrafficSet
from repro.topology.fattree import FatTree
from repro.workloads.search import SearchWorkload

SCALE = 2.0


def digest(res) -> str:
    payload = {
        "routing": {fid: list(p) for fid, p in sorted(res.routing.items())},
        "switches_on": sorted(res.subnet.switches_on),
        "links_on": sorted(map(list, res.subnet.links_on)),
        "scale_factor": res.scale_factor,
        "objective_watts": res.objective_watts,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def ft4():
    return FatTree(4)


def churned_epochs(ft, n_epochs, seed=7, jitter=0.0, lifetime=6.0, util=0.3):
    """Epoch traffic sequences with persistent query flows + churning bg."""
    query = SearchWorkload(ft).query_flows()
    churn = FlowChurnModel(
        ft,
        n_flows=24,
        mean_lifetime_epochs=lifetime,
        demand_jitter=jitter,
        seed_or_rng=seed,
    )
    return [churn.advance(util).merged_with(query) for _ in range(n_epochs)]


def bg(fid, src, dst, demand):
    return Flow(fid, src, dst, demand, flow_class=FlowClass.LATENCY_TOLERANT)


class TestGoldenEquivalence:
    def test_zero_drift_bound_bit_identical(self, ft4):
        """drift_bound=0 is the golden contract: every epoch full-solves
        and matches a fresh full consolidator bit for bit."""
        delta = DeltaConsolidator(ft4, drift_bound=0.0)
        full = GreedyConsolidator(FatTree(4))
        for traffic in churned_epochs(ft4, 5):
            a = delta.consolidate(traffic, SCALE)
            b = full.consolidate(traffic, SCALE)
            assert digest(a) == digest(b)
            assert delta.last_stats.mode == MODE_FULL
            assert delta.last_stats.fallback_reason == FALLBACK_ZERO_BOUND

    def test_finite_bound_valid_within_envelope(self, ft4):
        """Delta epochs must produce physically valid results whose
        objective stays within the drift envelope of a fresh solve."""
        bound = 0.25
        delta = DeltaConsolidator(ft4, drift_bound=bound)
        full = GreedyConsolidator(FatTree(4))
        saw_delta = False
        for traffic in churned_epochs(ft4, 6, jitter=0.1):
            a = delta.consolidate(traffic, SCALE)
            validate_result(ft4, traffic, a, check_reservations=True)
            b = full.consolidate(traffic, SCALE)
            drift = (a.objective_watts - b.objective_watts) / b.objective_watts
            assert drift <= bound + 1e-9
            saw_delta = saw_delta or delta.last_stats.mode == MODE_DELTA
        assert saw_delta
        assert delta.last_stats.regret_fraction <= bound + 1e-9

    def test_delta_routes_all_and_only_offered_flows(self, ft4):
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        for traffic in churned_epochs(ft4, 4):
            res = delta.consolidate(traffic, SCALE)
            assert set(dict(res.routing.items())) == {f.flow_id for f in traffic}


class TestClassification:
    def test_depart_and_rearrive_same_epoch(self, ft4):
        """Same flow id, new endpoints: one departure + one arrival."""
        h = ft4.hosts
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        stable = [bg(f"s{i}", h[6 + i], h[10 + i], 5e6) for i in range(4)]
        t1 = TrafficSet([bg("x", h[0], h[1], 10e6), bg("y", h[2], h[3], 10e6), *stable])
        t2 = TrafficSet([bg("x", h[0], h[4], 10e6), bg("y", h[2], h[3], 10e6), *stable])
        delta.consolidate(t1, SCALE)
        res = delta.consolidate(t2, SCALE)
        s = delta.last_stats
        assert s.mode == MODE_DELTA
        assert (s.n_arrived, s.n_departed, s.n_repredicted, s.n_unchanged) == (1, 1, 0, 5)
        assert res.routing.path("x")[-1] == h[4]
        validate_result(ft4, t2, res)

    def test_repredicted_demand_at_floor(self, ft4):
        """A demand re-predicted down to the monitor's 1 bps floor is a
        re-prediction, not a departure — the flow stays routed."""
        h = ft4.hosts
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        t1 = TrafficSet([bg("x", h[0], h[1], 10e6), bg("y", h[2], h[3], 10e6)])
        t2 = TrafficSet([bg("x", h[0], h[1], 1.0), bg("y", h[2], h[3], 10e6)])
        delta.consolidate(t1, SCALE)
        res = delta.consolidate(t2, SCALE)
        s = delta.last_stats
        assert s.mode == MODE_DELTA
        assert (s.n_arrived, s.n_departed, s.n_repredicted, s.n_unchanged) == (0, 0, 1, 1)
        assert "x" in res.routing
        validate_result(ft4, t2, res)

    def test_class_change_counts_as_rearrival(self, ft4):
        h = ft4.hosts
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        t1 = TrafficSet([bg("x", h[0], h[1], 10e6), bg("y", h[2], h[3], 10e6)])
        t2 = TrafficSet(
            [Flow("x", h[0], h[1], 10e6), bg("y", h[2], h[3], 10e6)]
        )
        delta.consolidate(t1, SCALE)
        delta.consolidate(t2, SCALE)
        s = delta.last_stats
        assert (s.n_arrived, s.n_departed) == (1, 1)


class TestFallbackLadder:
    def test_cold_start_then_delta(self, ft4):
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        epochs = churned_epochs(ft4, 3)
        delta.consolidate(epochs[0], SCALE)
        assert delta.last_stats.fallback_reason == FALLBACK_COLD_START
        delta.consolidate(epochs[1], SCALE)
        assert delta.last_stats.mode == MODE_DELTA

    def test_exclusions_stable_vs_changed(self, ft4):
        """Same failed-device set: delta.  Changed set: full solve."""
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        epochs = churned_epochs(ft4, 3)
        dead = frozenset({"c0_0"})
        delta.consolidate(epochs[0], SCALE, excluded_switches=dead)
        delta.consolidate(epochs[1], SCALE, excluded_switches=dead)
        assert delta.last_stats.mode == MODE_DELTA
        res = delta.consolidate(epochs[2], SCALE, excluded_switches=frozenset({"c1_0"}))
        assert delta.last_stats.fallback_reason == FALLBACK_EXCLUSIONS
        assert all("c1_0" not in p for _, p in res.routing.items())

    def test_churn_bound_falls_back(self, ft4):
        h = ft4.hosts
        delta = DeltaConsolidator(ft4, drift_bound=0.5, max_churn_fraction=0.5)
        t1 = TrafficSet([bg(f"f{i}", h[i], h[i + 4], 5e6) for i in range(4)])
        # All four flows replaced: churn fraction 2.0 > 0.5.
        t2 = TrafficSet([bg(f"g{i}", h[i], h[i + 8], 5e6) for i in range(4)])
        delta.consolidate(t1, SCALE)
        delta.consolidate(t2, SCALE)
        s = delta.last_stats
        assert s.mode == MODE_FULL
        assert s.fallback_reason == FALLBACK_CHURN
        assert (s.n_arrived, s.n_departed) == (4, 4)

    def test_full_refresh_interval(self, ft4):
        delta = DeltaConsolidator(ft4, drift_bound=0.5, full_refresh_epochs=2)
        epochs = churned_epochs(ft4, 4)
        reasons = []
        for traffic in epochs:
            delta.consolidate(traffic, SCALE)
            reasons.append(delta.last_stats.fallback_reason)
        assert reasons == [FALLBACK_COLD_START, None, None, FALLBACK_REFRESH]

    def test_invalidate_forces_full(self, ft4):
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        epochs = churned_epochs(ft4, 2)
        delta.consolidate(epochs[0], SCALE)
        assert delta.has_warm_state
        delta.invalidate("test")
        assert not delta.has_warm_state
        delta.consolidate(epochs[1], SCALE)
        assert delta.last_stats.fallback_reason == FALLBACK_INVALIDATED
        assert delta.last_invalidation_cause == "test"

    def test_scale_change_forces_full(self, ft4):
        delta = DeltaConsolidator(ft4, drift_bound=0.5)
        epochs = churned_epochs(ft4, 2)
        delta.consolidate(epochs[0], SCALE)
        delta.consolidate(epochs[1], 1.0)
        assert delta.last_stats.mode == MODE_FULL


class TestControllerPlumbing:
    def test_mode_delta_drift0_matches_full_mode(self, ft4):
        c_full = SdnController(GreedyConsolidator(ft4), scale_factor=SCALE)
        c_delta = SdnController(
            GreedyConsolidator(ft4),
            scale_factor=SCALE,
            mode="delta",
            delta_drift_bound=0.0,
        )
        for traffic in churned_epochs(ft4, 4):
            a = c_full.run_epoch(traffic)
            b = c_delta.run_epoch(traffic)
            assert digest(a.result) == digest(b.result)
            assert b.delta_stats is not None and a.delta_stats is None

    def test_delta_counters_in_telemetry(self, ft4):
        c = SdnController(
            GreedyConsolidator(ft4), scale_factor=SCALE, mode="delta"
        )
        for traffic in churned_epochs(ft4, 3):
            c.run_epoch(traffic)
        counters = c.telemetry_counters()
        assert counters["delta"]["epochs"] == 3
        assert counters["delta"]["delta_epochs"] >= 1

    def test_unknown_mode_rejected(self, ft4):
        with pytest.raises(ConfigurationError):
            SdnController(GreedyConsolidator(ft4), mode="incremental")

    def test_unchanged_skip_preserves_epoch_plan(self, ft4):
        """A delta epoch's committed plan is the full path-by-path diff
        of the previous and the new routing."""
        from repro.control.rules import diff_routings

        c = SdnController(GreedyConsolidator(ft4), scale_factor=SCALE, mode="delta")
        for traffic in churned_epochs(ft4, 5):
            prev = c.current_routing
            outcome = c.run_epoch(traffic)
            if not outcome.committed:
                continue
            reference = diff_routings(prev, outcome.result.routing)
            assert outcome.plan.rules == reference

    def test_rollback_invalidates_warm_state(self, ft4):
        """Guardrail rollback restores a historical routing the delta
        engine never packed — the next epoch must full-solve."""
        guard = SlaGuardrail(5e-3, cooldown_epochs=0)
        c = SdnController(
            GreedyConsolidator(ft4),
            scale_factor=SCALE,
            guardrail=guard,
            mode="delta",
            delta_drift_bound=0.5,
        )
        epochs = churned_epochs(ft4, 3, lifetime=2.0)
        c.run_epoch(epochs[0])
        c.observe_sla(1e-4)  # clear: marks epoch-0 config known-good
        c.run_epoch(epochs[1])
        assert c.delta.has_warm_state
        decision = c.observe_sla(1.0)  # gross violation: roll back
        assert decision.action == "rollback"
        assert not c.delta.has_warm_state
        c.run_epoch(epochs[2])
        assert c.delta.last_stats.fallback_reason == FALLBACK_INVALIDATED
        assert c.delta.last_invalidation_cause == "rollback"
