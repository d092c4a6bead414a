"""Imperfect-telemetry model: profile determinism, collector semantics,
gap-aware monitor behaviour, and oracle equivalence under degradation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.control.controller
import repro.exec.ops
from repro.control.monitor import TrafficMonitor
from repro.errors import ConfigurationError
from repro.exec.ops import telemetry_run_op, workload_for
from repro.flows.prediction import PercentilePredictor
from repro.telemetry import (
    PERFECT_TELEMETRY,
    DegradedStatsCollector,
    TelemetryProfile,
)
from tests.oracles.network import ReferenceGreedyConsolidator, ReferenceNetworkModel
from tests.oracles.telemetry import batch_to_dicts


def same_batch(a, b):
    """Equal ids, counts and rates (bit for bit) and equal counters."""
    return batch_to_dicts(a) == batch_to_dicts(b) and (
        a.epoch, a.n_polls, a.n_lost, a.n_stale, a.n_delayed
    ) == (b.epoch, b.n_polls, b.n_lost, b.n_stale, b.n_delayed)


@pytest.fixture(scope="module")
def workload():
    return workload_for(4)


@pytest.fixture(scope="module")
def traffic(workload):
    return workload.traffic(0.3, seed_or_rng=11)


class TestTelemetryProfile:
    def test_defaults_are_perfect(self):
        assert PERFECT_TELEMETRY.is_perfect
        assert TelemetryProfile(stats_loss_prob=0.1).is_perfect is False

    def test_probabilities_must_sum_within_one(self):
        with pytest.raises(ConfigurationError):
            TelemetryProfile(stats_loss_prob=0.6, stale_prob=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stats_loss_prob": -0.1},
            {"stale_prob": 1.5},
            {"noise_frac": 1.0},
            {"noise_frac": -0.2},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigurationError):
            TelemetryProfile(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**40, 1.5, 1.0, True, "3", None])
    def test_rejects_seeds_that_alias_another_stream(self, seed):
        # The generators key on 32 bits: seed=2**32 used to replay seed=0
        # and seed=-1 seed=2**32-1, each hashing as a distinct profile.
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            TelemetryProfile(stats_loss_prob=0.5, seed=seed)

    def test_accepts_every_32_bit_seed(self):
        for seed in (0, 2**32 - 1, np.int64(7)):
            TelemetryProfile(seed=seed).rng_for(0, "e0_0").random()

    def test_pickle_round_trip(self):
        p = TelemetryProfile(
            stats_loss_prob=0.2, stale_prob=0.1, delay_prob=0.05,
            noise_frac=0.03, seed=42,
        )
        assert pickle.loads(pickle.dumps(p)) == p

    def test_rng_deterministic_per_epoch_and_switch(self):
        p = TelemetryProfile(stats_loss_prob=0.5, seed=9)
        a = p.rng_for(3, "edge-1").uniform(size=4)
        b = p.rng_for(3, "edge-1").uniform(size=4)
        c = p.rng_for(3, "edge-2").uniform(size=4)
        d = p.rng_for(4, "edge-1").uniform(size=4)
        assert (a == b).all()
        assert not (a == c).all()
        assert not (a == d).all()


class TestDegradedStatsCollector:
    def test_perfect_profile_delivers_everything(self, workload, traffic):
        collector = DegradedStatsCollector(workload.topology, PERFECT_TELEMETRY)
        monitor = TrafficMonitor(window=10)
        batch = collector.feed(monitor, 0, traffic, n_polls=5)
        assert batch.n_lost == batch.n_stale == batch.n_delayed == 0
        samples, gaps = batch_to_dicts(batch)
        assert not gaps
        for flow in traffic:
            assert len(samples[flow.flow_id]) == 5
            # No noise: every delivered sample equals the true demand.
            assert samples[flow.flow_id] == [flow.demand_bps] * 5
            assert monitor.has_prediction(flow.flow_id)

    def test_clean_views_hold_the_offered_flows(self, workload, traffic):
        """Clean polls predict every demand exactly, so neither view
        copies a flow."""
        collector = DegradedStatsCollector(workload.topology, PERFECT_TELEMETRY)
        monitor = TrafficMonitor(window=10)
        collector.feed(monitor, 0, traffic, n_polls=5)
        for view in (monitor.predicted_traffic(traffic), monitor.observed_traffic(traffic)):
            assert all(v is f for v, f in zip(view, traffic, strict=True))

    def test_perfect_profile_builds_no_generator(self, workload, traffic, monkeypatch):
        """No draw can change a clean outcome, so none is made."""

        def no_rng(self, epoch, switch):
            raise AssertionError("perfect telemetry drew from a generator")

        monkeypatch.setattr(TelemetryProfile, "rng_for", no_rng)
        collector = DegradedStatsCollector(workload.topology, PERFECT_TELEMETRY)
        for epoch in range(3):
            batch = collector.collect(epoch, traffic, n_polls=4)
            assert batch.n_polls > 0 and batch.n_lost == batch.n_stale == batch.n_delayed == 0

    @pytest.mark.parametrize("profile", [PERFECT_TELEMETRY, TelemetryProfile(stats_loss_prob=0.2)])
    def test_rejects_negative_epoch(self, workload, traffic, profile):
        collector = DegradedStatsCollector(workload.topology, profile)
        with pytest.raises(ConfigurationError, match="epoch must be >= 0"):
            collector.collect(-1, traffic)

    def test_total_loss_yields_only_gaps(self, workload, traffic):
        profile = TelemetryProfile(stats_loss_prob=1.0, seed=1)
        collector = DegradedStatsCollector(workload.topology, profile)
        monitor = TrafficMonitor(window=10)
        batch = collector.feed(monitor, 0, traffic, n_polls=3)
        samples, gaps = batch_to_dicts(batch)
        assert not samples
        assert batch.n_delivered_samples == 0
        for flow in traffic:
            assert gaps[flow.flow_id] == 3
            assert monitor.gap_fraction(flow.flow_id) == 1.0
        # Nothing was ever measured, so prediction keeps configured demands.
        predicted = monitor.predicted_traffic(traffic)
        for flow in traffic:
            assert predicted[flow.flow_id].demand_bps == flow.demand_bps

    def test_noise_is_bounded(self, workload, traffic):
        profile = TelemetryProfile(noise_frac=0.2, seed=5)
        collector = DegradedStatsCollector(workload.topology, profile)
        samples, _ = batch_to_dicts(collector.collect(0, traffic, n_polls=4))
        for flow in traffic:
            for sample in samples[flow.flow_id]:
                assert 0.8 * flow.demand_bps <= sample <= 1.2 * flow.demand_bps

    def test_stale_reuses_last_good_rates(self, workload, traffic):
        # Low loss, certain staleness after epoch 0 is impossible to
        # construct from one profile, so assert the semantics instead:
        # every stale-served sample equals a previously delivered one.
        profile = TelemetryProfile(stale_prob=0.5, seed=3)
        collector = DegradedStatsCollector(workload.topology, profile)
        first = collector.collect(0, traffic, n_polls=2)
        second = collector.collect(1, traffic, n_polls=2)
        assert second.n_stale > 0  # seed chosen so some switch goes stale
        by_flow_true = {f.flow_id: f.demand_bps for f in traffic}
        for fid, samples in batch_to_dicts(second)[0].items():
            for sample in samples:
                assert sample == by_flow_true[fid]
        assert first.n_polls == second.n_polls

    def test_all_stale_with_no_history_is_gaps(self, workload, traffic):
        profile = TelemetryProfile(stale_prob=1.0, seed=2)
        collector = DegradedStatsCollector(workload.topology, profile)
        batch = collector.collect(0, traffic, n_polls=2)
        assert not batch.sample_ids
        assert batch.n_stale > 0

    def test_delayed_batches_arrive_next_epoch(self, workload, traffic):
        profile = TelemetryProfile(delay_prob=1.0, seed=4)
        collector = DegradedStatsCollector(workload.topology, profile)
        first = collector.collect(0, traffic, n_polls=2)
        assert not first.sample_ids  # everything in flight
        assert first.n_delayed > 0
        second = collector.collect(1, traffic, n_polls=2)
        # Epoch 1 delivers epoch 0's late batches in full (epoch 1's
        # own polls are again delayed, into epoch 2): every flow's two
        # epoch-0 polls arrive, one sample each.
        n_flows = sum(1 for _ in traffic)
        assert second.n_delivered_samples == 2 * n_flows
        assert (second.sample_counts == 2).all()

    def test_deterministic_and_picklable_mid_run(self, workload, traffic):
        profile = TelemetryProfile(
            stats_loss_prob=0.3, stale_prob=0.2, delay_prob=0.1,
            noise_frac=0.05, seed=8,
        )
        a = DegradedStatsCollector(workload.topology, profile)
        b = DegradedStatsCollector(workload.topology, profile)
        assert same_batch(a.collect(0, traffic), b.collect(0, traffic))
        # Resuming from a pickle must continue the exact same stream.
        b = pickle.loads(pickle.dumps(b))
        assert same_batch(a.collect(1, traffic), b.collect(1, traffic))
        assert a.accounting() == b.accounting()

    def test_late_batch_survives_a_skipped_epoch(self, workload, traffic):
        # Epoch 0's replies are all late, addressed to epoch 1; the
        # controller next collects epoch 2.  They must arrive then,
        # ahead of epoch 2's own (again late) polls, not sit in the
        # collector forever.
        profile = TelemetryProfile(delay_prob=1.0, seed=4)
        collector = DegradedStatsCollector(workload.topology, profile)
        collector.collect(0, traffic, n_polls=2)
        batch = collector.collect(2, traffic, n_polls=2)
        samples, _ = batch_to_dicts(batch)
        assert samples == {f.flow_id: [f.demand_bps] * 2 for f in traffic}
        assert sorted(collector._pending) == [3]

    def test_epochs_must_increase(self, workload, traffic):
        collector = DegradedStatsCollector(workload.topology, PERFECT_TELEMETRY)
        collector.collect(1, traffic)
        with pytest.raises(ConfigurationError):
            collector.collect(1, traffic)


class TestGapAwarePrediction:
    def test_predict_with_no_samples_raises(self):
        p = PercentilePredictor(window=5)
        with pytest.raises(ConfigurationError, match="no delivered samples"):
            p.predict()
        p.record_gap()
        with pytest.raises(ConfigurationError, match="no delivered samples"):
            p.predict()
        with pytest.raises(ConfigurationError, match="no delivered samples"):
            p.window_mean()

    def test_gap_window_slides_out_old_samples(self):
        p = PercentilePredictor(window=4)
        p.observe(100.0)
        p.observe(200.0)
        for _ in range(4):
            p.record_gap()
        # The window is entirely gaps now; the old samples left with it.
        assert p.n_samples == 0
        assert p.gap_fraction == 1.0
        assert p.total_gaps == 4

    def test_gap_fraction_counts_window_only(self):
        p = PercentilePredictor(window=4)
        for _ in range(3):
            p.record_gap()
        for r in (10.0, 20.0, 30.0, 40.0):
            p.observe(r)
        assert p.n_gaps == 0  # gaps slid out of the window
        assert p.total_gaps == 3
        assert p.n_samples == 4


class TestMonitorRobustness:
    def test_eviction_bounds_tracked_flows(self):
        m = TrafficMonitor(window=4, max_tracked_flows=2)
        m.observe("a", 1.0)
        m.observe("b", 2.0)
        m.observe("c", 3.0)
        assert m.n_tracked_flows() == 2
        assert m.evictions == 1
        assert not m.has_prediction("a")  # oldest evicted

    def test_eviction_is_least_recently_observed(self):
        m = TrafficMonitor(window=4, max_tracked_flows=2)
        m.observe("a", 1.0)
        m.observe("b", 2.0)
        m.observe("a", 1.5)  # touch a: b becomes oldest
        m.observe("c", 3.0)
        assert m.has_prediction("a")
        assert not m.has_prediction("b")

    def test_max_tracked_flows_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficMonitor(max_tracked_flows=0)
        with pytest.raises(ConfigurationError):
            TrafficMonitor(staleness_inflation=-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_staleness_inflation(self, bad):
        # A NaN or infinite discount turns every gapped flow's prediction
        # into NaN, which used to surface only when a view was rebuilt.
        with pytest.raises(ConfigurationError, match="staleness_inflation"):
            TrafficMonitor(staleness_inflation=bad)

    def test_blind_flow_falls_back_to_last_good(self, workload, traffic):
        m = TrafficMonitor(window=3)
        flow = next(iter(traffic))
        for _ in range(3):
            m.observe(flow.flow_id, 123.0)
        first = m.predicted_traffic(traffic)
        assert first[flow.flow_id].demand_bps == pytest.approx(123.0)
        for _ in range(3):  # a whole window of lost polls
            m.observe_gap(flow.flow_id)
        second = m.predicted_traffic(traffic)
        assert second[flow.flow_id].demand_bps == pytest.approx(123.0)
        assert m.fallbacks > 0

    def test_staleness_inflation_adds_headroom(self, workload, traffic):
        flow = next(iter(traffic))
        plain = TrafficMonitor(window=4)
        inflated = TrafficMonitor(window=4, staleness_inflation=1.0)
        for m in (plain, inflated):
            m.observe(flow.flow_id, 100.0)
            m.observe(flow.flow_id, 100.0)
            m.observe_gap(flow.flow_id)
            m.observe_gap(flow.flow_id)
        base = plain.predicted_traffic(traffic)[flow.flow_id].demand_bps
        padded = inflated.predicted_traffic(traffic)[flow.flow_id].demand_bps
        # Half the window is gaps -> 1.5x headroom at inflation=1.0.
        assert padded == pytest.approx(1.5 * base)

    def test_zero_inflation_is_bit_identical(self, workload, traffic):
        flow = next(iter(traffic))
        m = TrafficMonitor(window=4)
        m.observe(flow.flow_id, 77.0)
        m.observe_gap(flow.flow_id)
        assert m.predicted_traffic(traffic)[flow.flow_id].demand_bps == 77.0


BASE_SPEC = dict(
    arity=4, scale_factor=2.0, background=0.4, n_epochs=4, n_polls=6,
    delay_prob=0.05, noise_frac=0.05, n_latency_samples=10,
)


class TestEngineEquivalence:
    @settings(max_examples=3, deadline=None)
    @given(
        loss=st.sampled_from([0.0, 0.15, 0.3]),
        stale=st.sampled_from([0.0, 0.2]),
        guarded=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_indexed_matches_reference_under_degradation(
        self, loss, stale, guarded, seed
    ):
        """Same seed + profile -> bit-identical run summaries whether
        production or the string-keyed oracle solves the epochs, replays
        them for ground truth and checks candidates for admission."""
        spec = dict(
            BASE_SPEC,
            stats_loss_prob=loss, stale_prob=stale, guardrail_on=guarded,
            telemetry_seed=seed, traffic_seed=seed,
        )
        indexed = telemetry_run_op(**spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.exec.ops, "GreedyConsolidator", ReferenceGreedyConsolidator)
            mp.setattr(repro.exec.ops, "NetworkModel", ReferenceNetworkModel)
            mp.setattr(repro.control.controller, "NetworkModel", ReferenceNetworkModel)
            reference = telemetry_run_op(**spec)
        assert indexed == reference

    def test_guardrail_off_is_the_historical_controller(self):
        """With a perfect profile and no guardrail, the run decays to
        the plain prediction-consolidation loop: no guardrail state, no
        gaps, no fallbacks."""
        spec = dict(
            BASE_SPEC,
            stats_loss_prob=0.0, stale_prob=0.0, guardrail_on=False,
            telemetry_seed=0, traffic_seed=0,
        )
        spec["delay_prob"] = 0.0
        spec["noise_frac"] = 0.0
        out = telemetry_run_op(**spec)
        assert out["guardrail"] is None
        assert out["telemetry"]["polls_lost"] == 0
        assert out["monitor"]["total_gaps"] == 0
        assert out["monitor"]["fallbacks"] == 0
