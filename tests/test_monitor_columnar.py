"""Columnar TrafficMonitor vs a reference of one PercentilePredictor per flow.

The monitor keeps every flow's poll window in one columnar store and
computes all percentiles and window means in a vectorized pass.  The
reference (:class:`tests.oracles.telemetry.ReferenceMonitor`) is the
per-flow design it replaced: a dict of :class:`PercentilePredictor` in
least-recently-observed order.  Both are driven through random
interleavings of observes, gaps, batches, prunes, forgets and
evictions, and must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.monitor import TrafficMonitor
from repro.errors import ConfigurationError
from repro.exec.ops import workload_for
from repro.flows.flow import Flow, FlowClass
from repro.flows.prediction import PercentilePredictor
from repro.flows.traffic import TrafficSet
from repro.telemetry import DegradedStatsCollector, TelemetryProfile
from tests.oracles.telemetry import ReferenceMonitor, batch_from_dicts, batch_to_dicts


FLOW_IDS = [f"f{i}" for i in range(6)]

BASE = TrafficSet(
    Flow(
        fid, "h0", f"h{i + 1}", 1e6 * (i + 1),
        flow_class=FlowClass.LATENCY_SENSITIVE if i % 2 else FlowClass.LATENCY_TOLERANT,
        deadline_s=5e-3 if i % 2 else None,
    )
    for i, fid in enumerate(FLOW_IDS)
)

fids = st.sampled_from(FLOW_IDS)
# Integral rates make ties (and percentile interpolation on equal
# neighbours) common; the float branch covers arbitrary mantissas.
rates = st.one_of(
    st.integers(0, 5).map(float),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
)
ops = st.one_of(
    st.tuples(st.just("observe"), fids, rates),
    st.tuples(st.just("gap"), fids),
    st.tuples(
        st.just("batch"),
        st.dictionaries(fids, st.lists(rates, min_size=0, max_size=10), max_size=6),
        st.dictionaries(fids, st.integers(0, 10), max_size=6),
    ),
    st.tuples(st.just("prune"), st.frozensets(fids)),
    st.tuples(st.just("forget"), fids),
    st.tuples(st.just("predict"), st.frozensets(fids, min_size=1)),
)


def assert_same_state(monitor, ref):
    assert monitor.telemetry_counters() == ref.telemetry_counters()
    assert monitor.n_tracked_flows() == len(ref.predictors)
    for fid in FLOW_IDS:
        assert monitor.has_prediction(fid) == ref.has_prediction(fid)
        assert monitor.gap_fraction(fid) == ref.gap_fraction(fid)
        if ref.has_prediction(fid):
            assert monitor.predicted_demand(fid) == ref.predictors[fid].predict()


def assert_same_traffic(monitor, ref, base):
    predicted = monitor.predicted_traffic(base)
    expected = ref.predicted_demands(base)
    assert [f.flow_id for f in predicted] == [f.flow_id for f in base]
    assert {f.flow_id: f.demand_bps for f in predicted} == expected
    observed = monitor.observed_traffic(base)
    assert {f.flow_id: f.demand_bps for f in observed} == ref.observed_demands(base)
    for out in (predicted, observed):
        for flow in out:
            src = base[flow.flow_id]
            assert (flow.src, flow.dst, flow.flow_class, flow.deadline_s) == (
                src.src, src.dst, src.flow_class, src.deadline_s,
            )


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        window=st.integers(1, 8),
        q=st.sampled_from([0.0, 37.5, 50.0, 90.0, 100.0]),
        max_tracked=st.one_of(st.none(), st.integers(1, 5)),
        inflation=st.sampled_from([0.0, 0.3, 1.0]),
        program=st.lists(ops, max_size=40),
    )
    def test_random_interleavings_are_bit_identical(
        self, window, q, max_tracked, inflation, program
    ):
        kwargs = dict(
            q=q, window=window, max_tracked_flows=max_tracked,
            staleness_inflation=inflation,
        )
        monitor, ref = TrafficMonitor(**kwargs), ReferenceMonitor(**kwargs)
        for op in program:
            kind = op[0]
            if kind == "observe":
                monitor.observe(op[1], op[2])
                ref.observe(op[1], op[2])
            elif kind == "gap":
                monitor.observe_gap(op[1])
                ref.observe_gap(op[1])
            elif kind == "batch":
                monitor.observe_batch(batch_from_dicts(op[1], op[2]))
                ref.observe_batch(op[1], op[2])
            elif kind == "prune":
                assert monitor.prune(op[1]) == ref.prune(op[1])
            elif kind == "forget":
                monitor.forget(op[1])
                ref.forget(op[1])
            else:
                base = TrafficSet(f for f in BASE if f.flow_id in op[1])
                assert_same_traffic(monitor, ref, base)
            assert_same_state(monitor, ref)
        assert_same_traffic(monitor, ref, BASE)
        assert_same_state(monitor, ref)
        clone = pickle.loads(pickle.dumps(monitor))
        assert_same_traffic(clone, ref, BASE)

    @pytest.mark.parametrize("window", [20, 300])
    def test_long_windows_match_reference(self, window):
        # Windows past numpy's 8- and 128-element pairwise-sum blocks.
        rng = np.random.default_rng(window)
        monitor, ref = TrafficMonitor(window=window), ReferenceMonitor(90.0, window)
        for epoch in range(4):
            samples = {
                fid: (rng.random(rng.integers(1, window + 5)) * 1e8).tolist()
                for fid in FLOW_IDS[: 3 + epoch % 3]
            }
            gaps = {fid: int(rng.integers(0, window // 2)) for fid in FLOW_IDS[2:]}
            monitor.observe_batch(batch_from_dicts(samples, gaps))
            ref.observe_batch(samples, gaps)
            assert_same_traffic(monitor, ref, BASE)
            assert_same_state(monitor, ref)


class TestCollectorFeed:
    @pytest.mark.parametrize("max_tracked", [None, 20])
    def test_feed_matches_per_sample_loop(self, max_tracked):
        workload = workload_for(4)
        profile = TelemetryProfile(
            stats_loss_prob=0.2, stale_prob=0.15, delay_prob=0.1,
            noise_frac=0.05, seed=5,
        )
        kwargs = dict(q=90.0, window=6, max_tracked_flows=max_tracked,
                      staleness_inflation=0.3)
        monitor, ref = TrafficMonitor(**kwargs), ReferenceMonitor(**kwargs)
        fed = DegradedStatsCollector(workload.topology, profile)
        looped = DegradedStatsCollector(workload.topology, profile)
        for epoch in range(6):
            traffic = workload.traffic(0.3, seed_or_rng=epoch)
            batch = fed.feed(monitor, epoch, traffic, n_polls=4)
            again = looped.collect(epoch, traffic, n_polls=4)
            samples, gaps = batch_to_dicts(again)
            assert batch_to_dicts(batch) == (samples, gaps)
            for fid in sorted(samples):
                for rate in samples[fid]:
                    ref.observe(fid, rate)
            for fid in sorted(gaps):
                for _ in range(gaps[fid]):
                    ref.observe_gap(fid)
            monitor.prune(f.flow_id for f in traffic)
            ref.prune(f.flow_id for f in traffic)
            assert_same_traffic(monitor, ref, traffic)
            assert monitor.telemetry_counters() == ref.telemetry_counters()
        counters = monitor.telemetry_counters()
        assert counters["total_gaps"] > 0
        if max_tracked is not None:
            assert counters["evictions"] > 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 150.0},
            {"q": -1.0},
            {"q": math.nan},
            {"window": 0},
            {"window": -3},
            {"window": 2.5},
            {"window": True},
        ],
    )
    def test_constructor_rejects_bad_q_and_window(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrafficMonitor(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_monitor_rejects_non_finite_rates(self, bad):
        m = TrafficMonitor(window=4)
        with pytest.raises(ConfigurationError):
            m.observe("a", bad)
        with pytest.raises(ConfigurationError):
            m.observe_batch(batch_from_dicts({"a": [1.0], "b": [1.0, bad]}, {"c": 2}))
        # A rejected batch leaves no trace.
        assert m.n_tracked_flows() == 0

    def test_monitor_rejects_negative_gap_counts(self):
        with pytest.raises(ConfigurationError):
            TrafficMonitor(window=4).observe_batch(batch_from_dicts({}, {"a": -1}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_ids", ["b", "a"]),
            ("sample_ids", ["a", "a"]),
            ("sample_counts", np.array([2, 0])),
            ("sample_counts", np.array([1, 1])),
            ("gap_ids", ["c"]),
        ],
    )
    def test_monitor_rejects_malformed_batches(self, field, value):
        batch = batch_from_dicts({"a": [1.0], "b": [2.0, 3.0]}, {"a": 1, "c": 2})
        m = TrafficMonitor(window=4)
        with pytest.raises(ConfigurationError):
            m.observe_batch(dataclasses.replace(batch, **{field: value}))
        assert m.n_tracked_flows() == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_predictor_rejects_non_finite_rates(self, bad):
        p = PercentilePredictor(window=4)
        with pytest.raises(ConfigurationError):
            p.observe(bad)
        with pytest.raises(ConfigurationError):
            p.observe_many([1.0, bad])
        assert p.n_samples == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_flow_rejects_non_finite_demand(self, bad):
        with pytest.raises(ConfigurationError):
            Flow("a", "h0", "h1", bad)
