"""Array stats collector vs the dict-keyed reference collector.

The production :class:`DegradedStatsCollector` emits each epoch as one
array :class:`~repro.telemetry.ObservedBatch` and feeds it to the
columnar :class:`TrafficMonitor`; the oracle is the per-flow dict
collector it replaced, feeding a :class:`ReferenceMonitor` one poll at
a time.  Both replay the same random degradation profiles over traffic
that churns between epochs — so late batches and stale replies name
flows that have departed — and must agree on every per-flow sample
sequence, gap count, poll counter and, after the feed, every monitor
prediction.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.monitor import TrafficMonitor
from repro.flows.flow import Flow
from repro.flows.traffic import TrafficSet
from repro.telemetry import DegradedStatsCollector, TelemetryProfile
from repro.topology import FatTree
from tests.oracles.telemetry import (
    ReferenceMonitor,
    ReferenceStatsCollector,
    batch_to_dicts,
)

FT = FatTree(4)
N_POOL = 24
# Unpadded ids, so string order ("f10" < "f2") differs from pool order,
# and sources that pile several flows onto some edge switches.
POOL = [
    (f"f{i}", FT.hosts[(3 * i) % 7], FT.hosts[7 + (5 * i) % 9])
    for i in range(N_POOL)
]

PROBS = [0.0, 0.1, 0.3, 0.5, 1.0]


@st.composite
def profiles(draw):
    loss = draw(st.sampled_from(PROBS))
    stale = draw(st.sampled_from([p for p in PROBS if loss + p <= 1.0]))
    delay = draw(st.sampled_from([p for p in PROBS if loss + stale + p <= 1.0]))
    return TelemetryProfile(
        stats_loss_prob=loss,
        stale_prob=stale,
        delay_prob=delay,
        noise_frac=draw(st.sampled_from([0.0, 0.05, 0.5])),
        seed=draw(st.integers(0, 2**16)),
    )


def epoch_traffic(members, seed):
    """The pool flows in ``members`` with seeded true rates."""
    rates = np.random.default_rng(seed).uniform(1e5, 1e9, N_POOL)
    return TrafficSet(
        Flow(fid, src, dst, float(rates[i]))
        for i, (fid, src, dst) in enumerate(POOL)
        if i in members
    )


@settings(max_examples=200, deadline=None)
@given(
    profile=profiles(),
    n_polls=st.integers(1, 5),
    epochs=st.lists(st.frozensets(st.integers(0, N_POOL - 1)), min_size=1, max_size=6),
    window=st.integers(1, 8),
    max_tracked=st.one_of(st.none(), st.integers(1, 10)),
    inflation=st.sampled_from([0.0, 0.5]),
    prune=st.booleans(),
)
def test_collector_and_feed_match_dict_oracle(
    profile, n_polls, epochs, window, max_tracked, inflation, prune
):
    kwargs = dict(
        q=90.0, window=window, max_tracked_flows=max_tracked,
        staleness_inflation=inflation,
    )
    monitor, ref_monitor = TrafficMonitor(**kwargs), ReferenceMonitor(**kwargs)
    collector = DegradedStatsCollector(FT, profile)
    oracle = ReferenceStatsCollector(FT, profile)
    for epoch, members in enumerate(epochs):
        traffic = epoch_traffic(members, epoch)
        batch = collector.feed(monitor, epoch, traffic, n_polls=n_polls)
        expected = oracle.feed(ref_monitor, epoch, traffic, n_polls=n_polls)

        assert batch_to_dicts(batch) == (expected.samples, expected.gaps)
        assert batch.n_delivered_samples == expected.n_delivered_samples
        assert (batch.epoch, batch.n_polls, batch.n_lost, batch.n_stale, batch.n_delayed) == (
            expected.epoch, expected.n_polls, expected.n_lost, expected.n_stale,
            expected.n_delayed,
        )
        assert collector.accounting() == oracle.accounting()

        if prune:
            assert monitor.prune(f.flow_id for f in traffic) == ref_monitor.prune(
                f.flow_id for f in traffic
            )
        predicted = monitor.predicted_traffic(traffic)
        assert {f.flow_id: f.demand_bps for f in predicted} == ref_monitor.predicted_demands(
            traffic
        )
        observed = monitor.observed_traffic(traffic)
        assert {f.flow_id: f.demand_bps for f in observed} == ref_monitor.observed_demands(
            traffic
        )
        assert monitor.telemetry_counters() == ref_monitor.telemetry_counters()
