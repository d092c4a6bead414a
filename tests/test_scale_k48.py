"""k=48 / ~10^5-flow scale test for the delta control plane.

ROADMAP item 1 names this scale as the remaining validation for the
churn-proportional control plane: a k=48 fat tree (27 648 hosts) with
~10^5 background flows, consolidated by :class:`DeltaConsolidator`
epochs, with ``diff_routings(unchanged=...)`` riding the engine's
proven-unchanged ids.

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
        assert len(s.unchanged_ids) == s.n_unchanged
        # And the epoch cost must reflect that (generous 3x bound; the
        # measured ratio is >10x — this guards regressions, not noise).
        assert s.solve_time_s < stats[0].solve_time_s / 3
    for traffic, res in zip(epochs, results):
        assert len(res.routing) == len(traffic)


def test_rule_diff_with_unchanged_ids_is_identical_and_churn_sized(scale_run):
    results, stats = scale_run["results"], scale_run["stats"]
    prev = None
    for res, s in zip(results, stats):
        naive = diff_routings(prev, res.routing)
        assisted = diff_routings(prev, res.routing, unchanged=s.unchanged_ids)
        assert naive.added == assisted.added
        assert naive.removed == assisted.removed
        assert naive.rerouted == assisted.rerouted
        if prev is not None:
            # Forwarding-rule churn is bounded by flow churn plus the
            # few placements the repair actually moved.
            assert len(naive.added) == CHURN_PER_EPOCH
            assert len(naive.removed) == CHURN_PER_EPOCH
            assert len(naive.rerouted) <= 10 * CHURN_PER_EPOCH
        prev = res.routing


def test_sharded_cold_solve_at_scale(scale_run):
    """A sharded cold full solve of the same k=48 epoch: valid, every
    flow placed, no residual underflow, and within a small factor of
    the indexed cold solve (the delta fixture's epoch-0 full solve).

    This workload is the sharded engine's worst case — ~250 flows per
    distinct pair means path-set compilation amortizes away and the
    solve is packing-bound, so no parallel speedup is expected here
    (the speedup contract is benchmarked at k=32's high-distinct-pair
    density by ``bench_control --engine sharded``).  What this pins is
    that the engine stays correct and does not blow up at 27k hosts."""
    from time import perf_counter

    from repro.consolidation import GreedyConsolidator, shutdown_shard_pool

    ft, epochs, stats = scale_run["ft"], scale_run["epochs"], scale_run["stats"]
    cons = GreedyConsolidator(ft, engine="sharded", shards=4, shard_jobs=4)
    try:
        t0 = perf_counter()
        result = cons.consolidate(epochs[0], SCALE_FACTOR)
        elapsed = perf_counter() - t0
    finally:
        shutdown_shard_pool()
    assert len(result.routing) == len(epochs[0])
    assert float(cons._state.residual.min()) >= 0.0
    st = cons.last_sharded_stats
    assert st is not None and st.n_shards == 4 and st.jobs == 4
    assert elapsed < stats[0].solve_time_s * 4.0
