"""k=48 / ~10^5-flow scale test for the delta control plane.

ROADMAP item 1 names this scale as the remaining validation for the
churn-proportional control plane: a k=48 fat tree (27 648 hosts) with
~10^5 background flows, consolidated by :class:`DeltaConsolidator`
epochs.

The unconstrained version of this problem is intractable: ~10^5 flows
over random host pairs is ~10^5 *distinct* pairs, each with (k/2)^2 =
576 shortest paths, and the path cache alone explodes.  The test keeps
the flow count at 10^5 but bounds the distinct-pair population (many
flows per pair, as with aggregated service traffic), which keeps the
cold full solve at ~30 s while still exercising every per-flow code
path at full count.

Marked ``slow`` — deselected by the default tier-1 run, executed
explicitly with ``-m slow`` (see the CI scale step).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.consolidation import DeltaConsolidator
from repro.consolidation.delta import MODE_DELTA, MODE_FULL
from repro.control.rules import diff_routings
from repro.flows.flow import Flow, FlowClass
from repro.flows.traffic import TrafficSet
from repro.topology.fattree import FatTree

pytestmark = pytest.mark.slow

K = 48
N_PAIRS = 400
N_FLOWS = 100_000
#: Flows departed (and arrived) per churn epoch — 1 % churn.
CHURN_PER_EPOCH = 1_000
N_EPOCHS = 4  # one cold full epoch + three churn epochs
DEMAND_BPS = 1e5
SCALE_FACTOR = 2.0
SEED = 7


def _flow(i: int, pairs) -> Flow:
    src, dst = pairs[i % len(pairs)]
    return Flow(
        f"bg-{i}", src, dst, demand_bps=DEMAND_BPS,
        flow_class=FlowClass.LATENCY_TOLERANT,
    )


def _epoch_traffic(pairs) -> list[TrafficSet]:
    """FIFO churn: each epoch the oldest flows leave, fresh ids arrive."""
    live = [_flow(i, pairs) for i in range(N_FLOWS)]
    epochs = [TrafficSet(live)]
    next_id = N_FLOWS
    for _ in range(N_EPOCHS - 1):
        fresh = [_flow(next_id + j, pairs) for j in range(CHURN_PER_EPOCH)]
        next_id += CHURN_PER_EPOCH
        live = live[CHURN_PER_EPOCH:] + fresh
        epochs.append(TrafficSet(live))
    return epochs


@pytest.fixture(scope="module")
def scale_run():
    ft = FatTree(K)
    hosts = sorted(ft.hosts)
    rng = np.random.default_rng(SEED)
    drawn = rng.choice(len(hosts), size=(N_PAIRS, 2))
    pairs = [(hosts[s], hosts[d]) for s, d in drawn if hosts[s] != hosts[d]]
    epochs = _epoch_traffic(pairs)

    delta = DeltaConsolidator(ft, drift_bound=0.5)
    results, stats = [], []
    for traffic in epochs:
        results.append(delta.consolidate(traffic, SCALE_FACTOR))
        stats.append(delta.last_stats)
    return {
        "ft": ft,
        "pairs": pairs,
        "epochs": epochs,
        "results": results,
        "stats": stats,
    }


def test_delta_epochs_scale_with_churn_not_flow_count(scale_run):
    epochs, results, stats = (
        scale_run["epochs"], scale_run["results"], scale_run["stats"]
    )
    assert len(epochs[0]) == N_FLOWS
    assert stats[0].mode == MODE_FULL
    for s in stats[1:]:
        assert s.mode == MODE_DELTA
        assert s.n_departed == CHURN_PER_EPOCH
        assert s.n_arrived == CHURN_PER_EPOCH
        # Churn-proportional: the engine must prove the overwhelming
        # majority of the 10^5 placements untouched each epoch.
        assert s.n_unchanged >= N_FLOWS - 10 * CHURN_PER_EPOCH
        # And the epoch cost must reflect that (generous 3x bound; the
        # measured ratio is >10x — this guards regressions, not noise).
        assert s.solve_time_s < stats[0].solve_time_s / 3
    for traffic, res in zip(epochs, results):
        assert len(res.routing) == len(traffic)
    for prev, res in zip(results, results[1:]):
        # Forwarding-rule churn is bounded by flow churn plus the few
        # placements the repair actually moved.
        rules = diff_routings(prev.routing, res.routing)
        assert len(rules.added) == CHURN_PER_EPOCH
        assert len(rules.removed) == CHURN_PER_EPOCH
        assert len(rules.rerouted) <= 10 * CHURN_PER_EPOCH
