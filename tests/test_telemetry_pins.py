"""Golden pins of the stats collector at a controller-like scale.

``tests/test_telemetry_oracle.py`` checks the collector against the
dict oracle on a k=4 fabric with at most five polls; these pins hold it
at k=8 with 20 polls per epoch over four churned epochs, where every
edge switch reports several flows and late or stale replies name flows
that have since departed.  Each :class:`ObservedBatch` field is hashed
bit for bit across the epochs; the poll counters are compared as
plain numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.flows.dynamics import FlowChurnModel
from repro.telemetry import PERFECT_TELEMETRY, DegradedStatsCollector, TelemetryProfile
from repro.topology import FatTree
from repro.workloads.search import SearchWorkload

N_POLLS = 20
N_EPOCHS = 4

DEGRADED = TelemetryProfile(
    stats_loss_prob=0.1, stale_prob=0.15, delay_prob=0.1, noise_frac=0.05, seed=7
)


def churned_epochs():
    ft = FatTree(8)
    query = SearchWorkload(ft).query_flows()
    churn = FlowChurnModel(ft, mean_lifetime_epochs=2.0, flows_per_host=2.0, seed_or_rng=3)
    return ft, [churn.advance(0.2).merged_with(query) for _ in range(N_EPOCHS)]


def collect_digests(profile):
    ft, epochs = churned_epochs()
    collector = DegradedStatsCollector(ft, profile)
    fields = {
        name: hashlib.sha256()
        for name in ("sample_ids", "sample_counts", "rates", "gap_ids", "gap_counts")
    }
    counters = []
    for epoch, traffic in enumerate(epochs):
        batch = collector.collect(epoch, traffic, n_polls=N_POLLS)
        fields["sample_ids"].update("\n".join(batch.sample_ids).encode() + b"\0")
        fields["gap_ids"].update("\n".join(batch.gap_ids).encode() + b"\0")
        for name in ("sample_counts", "gap_counts"):
            fields[name].update(np.asarray(getattr(batch, name), dtype=np.int64).tobytes())
        fields["rates"].update(np.asarray(batch.rates, dtype=np.float64).tobytes())
        counters.append(
            (batch.epoch, batch.n_polls, batch.n_lost, batch.n_stale, batch.n_delayed,
             batch.n_delivered_samples)
        )
    return {k: h.hexdigest()[:16] for k, h in fields.items()}, counters, collector.accounting()


PINS = {
    "perfect": (
        PERFECT_TELEMETRY,
        {
            "gap_counts": "e3b0c44298fc1c14",
            "gap_ids": "df3f619804a92fdb",
            "rates": "4b561073524091a4",
            "sample_counts": "1363de6d55d0c17b",
            "sample_ids": "37110b97b7a5bb4c",
        },
        [(e, 640, 0, 0, 0, 10200) for e in range(N_EPOCHS)],
        {"polls_total": 2560, "polls_lost": 0, "polls_stale": 0, "polls_delayed": 0},
    ),
    "degraded": (
        DEGRADED,
        {
            "gap_counts": "8c1cc5d2be155c3e",
            "gap_ids": "376e69e6b21f96c7",
            "rates": "034a68c2fa62f273",
            "sample_counts": "b1cc879f336808e4",
            "sample_ids": "2cf929cb17bae7a6",
        },
        [
            (0, 640, 63, 94, 60, 8412),
            (1, 640, 75, 89, 66, 8829),
            (2, 640, 60, 80, 66, 9330),
            (3, 640, 68, 102, 61, 9420),
        ],
        {"polls_total": 2560, "polls_lost": 266, "polls_stale": 365, "polls_delayed": 253},
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_collector_matches_golden_pins(name):
    profile, fields, counters, accounting = PINS[name]
    got_fields, got_counters, got_accounting = collect_digests(profile)
    assert got_counters == counters
    assert got_accounting == accounting
    assert got_fields == fields
