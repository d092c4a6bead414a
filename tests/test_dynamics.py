"""Flow churn dynamics and the controller's MILP fallback."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consolidation import GreedyConsolidator, validate_result
from repro.control import SdnController
from repro.errors import ConfigurationError
from repro.flows import FlowChurnModel
from repro.topology.fattree import FatTree
from repro.workloads import SearchWorkload
from tests.oracles.flows import ReferenceFlowChurnModel


class TestFlowChurnModel:
    def test_population_size_constant(self, ft4):
        churn = FlowChurnModel(ft4, seed_or_rng=1)
        for _ in range(5):
            ts = churn.advance(0.3)
            assert len(ts) == 16

    def test_flows_persist_and_die(self, ft4):
        churn = FlowChurnModel(ft4, mean_lifetime_epochs=4.0, seed_or_rng=1)
        first = {f.flow_id for f in churn.advance(0.3)}
        second = {f.flow_id for f in churn.advance(0.3)}
        survivors = first & second
        assert survivors  # some persist
        assert second - first  # some replaced
        assert churn.deaths == len(first - second)
        assert churn.births == 16 + len(second - first)

    def test_demands_track_target(self, ft4):
        churn = FlowChurnModel(ft4, seed_or_rng=2)
        ts = churn.advance(0.4)
        target = 0.4 * 1e9
        for f in ts:
            assert 0.5 * target <= f.demand_bps <= 1.5 * target

    def test_demand_ceiling(self, ft4):
        churn = FlowChurnModel(ft4, max_demand_fraction=0.75, seed_or_rng=2)
        ts = churn.advance(0.6)
        for f in ts:
            assert f.demand_bps <= 0.75 * 1e9 + 1e-6

    def test_endpoints_balanced(self, ft4):
        """One source and one destination per host (routability)."""
        from collections import Counter

        churn = FlowChurnModel(ft4, seed_or_rng=3)
        for _ in range(6):
            ts = churn.advance(0.5)
        srcs = Counter(f.src for f in ts)
        dsts = Counter(f.dst for f in ts)
        assert max(srcs.values()) == 1
        assert max(dsts.values()) == 1

    def test_population_routable_at_high_load(self, ft4):
        churn = FlowChurnModel(ft4, seed_or_rng=4)
        wl = SearchWorkload(ft4)
        g = GreedyConsolidator(ft4)
        for _ in range(8):
            traffic = churn.advance(0.45).merged_with(wl.query_flows())
            res = g.consolidate(traffic, 1.0, best_effort_scale=True)
            validate_result(ft4, traffic, res, check_reservations=False)

    def test_deterministic(self, ft4):
        a = FlowChurnModel(ft4, seed_or_rng=5)
        b = FlowChurnModel(ft4, seed_or_rng=5)
        for _ in range(3):
            ta, tb = a.advance(0.3), b.advance(0.3)
            assert [f.flow_id for f in ta] == [f.flow_id for f in tb]
            assert [f.demand_bps for f in ta] == [f.demand_bps for f in tb]

    def test_invalid_params(self, ft4):
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, mean_lifetime_epochs=0.5)
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, demand_jitter=1.0)
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, max_demand_fraction=0.0)
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, n_flows=0)
        churn = FlowChurnModel(ft4)
        with pytest.raises(ConfigurationError):
            churn.advance(1.0)
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, flows_per_host=0.0)
        with pytest.raises(ConfigurationError):
            FlowChurnModel(ft4, flows_per_host=-1.0)

    def test_flows_per_host_default_is_identity(self, ft4):
        """flows_per_host=1.0 must reproduce the historical sizing (and
        therefore every golden hash) exactly."""
        a = FlowChurnModel(ft4, seed_or_rng=6)
        b = FlowChurnModel(ft4, flows_per_host=1.0, seed_or_rng=6)
        assert a.n_flows == b.n_flows == len(list(ft4.hosts))
        for _ in range(3):
            ta = a.advance(0.3)
            tb = b.advance(0.3)
            assert [
                (f.flow_id, f.src, f.dst, f.demand_bps) for f in ta
            ] == [(f.flow_id, f.src, f.dst, f.demand_bps) for f in tb]

    def test_flows_per_host_scales_population(self, ft4):
        n_hosts = len(list(ft4.hosts))
        dense = FlowChurnModel(ft4, flows_per_host=2.0, seed_or_rng=6)
        assert dense.n_flows == 2 * n_hosts
        sparse = FlowChurnModel(ft4, flows_per_host=0.25, seed_or_rng=6)
        assert sparse.n_flows == max(1, round(0.25 * n_hosts))
        for _ in range(3):
            assert len(dense.advance(0.3)) == 2 * n_hosts

    def test_explicit_n_flows_overrides_density(self, ft4):
        churn = FlowChurnModel(ft4, n_flows=5, flows_per_host=3.0, seed_or_rng=6)
        assert churn.n_flows == 5


class TestFlowChurnFlashCrowdScale:
    """Property-based invariants at flash-crowd densities.

    The adversarial replays drive the churn model with surging
    utilization and (potentially) dense populations; these properties
    pin down what must hold for *every* such parameterization, not just
    the defaults: constant population, unique ids, demands inside the
    per-flow ceiling band, balanced endpoints, and bit-identical
    regeneration from the seed — including from a fresh process.
    """

    @given(
        flows_per_host=st.floats(1.5, 8.0),
        utilization=st.floats(0.05, 0.85),
        jitter=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_dense_population_invariants(
        self, flows_per_host, utilization, jitter, seed
    ):
        ft = FatTree(4)
        n_hosts = len(list(ft.hosts))
        churn = FlowChurnModel(
            ft,
            flows_per_host=flows_per_host,
            demand_jitter=jitter,
            seed_or_rng=seed,
        )
        expected = max(1, round(n_hosts * flows_per_host))
        cap = ft.capacity("h0_0_0", ft.attachment_switch("h0_0_0"))
        ceiling = churn.max_demand_fraction * cap
        # Surge epochs interleaved with lulls, like a flash crowd.
        for util in (0.1, utilization, utilization, 0.1):
            ts = churn.advance(util)
            assert len(ts) == expected
            ids = [f.flow_id for f in ts]
            assert len(set(ids)) == expected
            target = max(util * cap * n_hosts / expected, 1.0)
            lo = min(0.5 * target, ceiling)
            hi = min(1.5 * target, ceiling)
            for f in ts:
                assert lo - 1e-6 <= f.demand_bps <= hi + 1e-6
                assert f.demand_bps <= ceiling + 1e-6
            # Least-loaded endpoint balancing: no access link ever
            # carries more than its fair ceiling of elephants, at any
            # density (the routability property the replays lean on).
            fair = math.ceil(expected / n_hosts)
            assert max(Counter(f.src for f in ts).values()) <= fair
            # dst picks exclude the flow's own src, so the destination
            # side can overshoot the fair share by at most one.
            assert max(Counter(f.dst for f in ts).values()) <= fair + 1

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_regeneration_is_bit_identical(self, seed):
        ft = FatTree(4)
        kw = dict(flows_per_host=4.0, demand_jitter=0.3)
        a = FlowChurnModel(ft, seed_or_rng=seed, **kw)
        b = FlowChurnModel(FatTree(4), seed_or_rng=seed, **kw)
        for util in (0.15, 0.4, 0.4, 0.15):
            ta, tb = a.advance(util), b.advance(util)
            assert [
                (f.flow_id, f.src, f.dst, f.demand_bps) for f in ta
            ] == [(f.flow_id, f.src, f.dst, f.demand_bps) for f in tb]

    def test_cross_process_determinism(self):
        """The flash-crowd churn sequence digests identically in a
        fresh interpreter (nothing depends on process-global state)."""
        import hashlib
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.flows import FlowChurnModel\n"
            "from repro.topology.fattree import FatTree\n"
            "c = FlowChurnModel(FatTree(4), flows_per_host=4.0, seed_or_rng=9)\n"
            "h = hashlib.sha256()\n"
            "for u in (0.15, 0.4, 0.4, 0.15):\n"
            "    for f in c.advance(u):\n"
            "        h.update(f'{f.flow_id}|{f.src}|{f.dst}|{f.demand_bps!r};'"
            ".encode())\n"
            "print(h.hexdigest())\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        churn = FlowChurnModel(FatTree(4), flows_per_host=4.0, seed_or_rng=9)
        h = hashlib.sha256()
        for u in (0.15, 0.4, 0.4, 0.15):
            for f in churn.advance(u):
                h.update(f"{f.flow_id}|{f.src}|{f.dst}|{f.demand_bps!r};".encode())
        assert h.hexdigest() == remote


def _population_digest(model, utilizations) -> str:
    h = hashlib.sha256()
    for u in utilizations:
        for f in model.advance(u):
            h.update(f"{f.flow_id}|{f.src}|{f.dst}|{f.demand_bps!r};".encode())
    return h.hexdigest()


def _rows(traffic):
    return [(f.flow_id, f.src, f.dst, f.flow_class, f.demand_bps) for f in traffic]


_TREES = {k: FatTree(k) for k in (4, 6, 8)}


class TestChurnOracle:
    """The incremental endpoint balancing against the quadratic
    reference in ``tests/oracles/flows.py``: same generator calls in
    the same order, same flows, bit for bit."""

    def test_golden_ctrl_k16_churn(self):
        """The controller benchmark's population: k=16, 10-epoch
        lifetimes, no jitter, 41 epochs at 20 % background."""
        churn = FlowChurnModel(
            FatTree(16), mean_lifetime_epochs=10.0, demand_jitter=0.0, seed_or_rng=1
        )
        assert _population_digest(churn, [0.2] * 41) == (
            "0276b513675ebf89e475d13cb9a350b56aa93482179afccb4f40fd08503b9abd"
        )
        assert (churn.births, churn.deaths) == (5076, 4052)

    def test_survivors_keep_their_object_without_jitter(self):
        churn = FlowChurnModel(FatTree(4), demand_jitter=0.0, seed_or_rng=3)
        before = {f.flow_id: f for f in churn.advance(0.3)}
        after = list(churn.advance(0.3))
        survivors = [f for f in after if f.flow_id in before]
        assert survivors and len(survivors) < len(after)
        assert all(f is before[f.flow_id] for f in survivors)

    def test_golden_flash_crowd(self):
        churn = FlowChurnModel(FatTree(4), flows_per_host=4.0, seed_or_rng=9)
        assert _population_digest(churn, (0.15, 0.4, 0.4, 0.15)) == (
            "6b0859d9ba540c386267464593f7ecd4526765287ba5392b9d9e09d64cbe2b9f"
        )

    @given(
        arity=st.sampled_from((4, 6, 8)),
        size=st.one_of(
            st.tuples(st.just(None), st.floats(0.25, 8.0)),
            st.tuples(st.sampled_from((1, 3, "over")), st.just(1.0)),
        ),
        lifetime=st.floats(1.0, 10.0),
        jitter=st.floats(0.0, 0.9),
        utilizations=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        shared_rng=st.booleans(),
    )
    @example(
        arity=4, size=(None, 2.0), lifetime=1.0, jitter=0.15,
        utilizations=[0.3] * 6, seed=1, shared_rng=False,
    )
    @example(
        arity=4, size=("over", 1.0), lifetime=2.0, jitter=0.0,
        utilizations=[0.1, 0.5, 0.5], seed=7, shared_rng=True,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(
        self, arity, size, lifetime, jitter, utilizations, seed, shared_rng
    ):
        ft = _TREES[arity]
        n_flows, flows_per_host = size
        if n_flows == "over":
            n_flows = ft.n_hosts + 3
        kw = dict(
            n_flows=n_flows,
            flows_per_host=flows_per_host,
            mean_lifetime_epochs=lifetime,
            demand_jitter=jitter,
        )
        # A shared generator: both models must leave the caller's
        # stream in the same state.
        rng_a, rng_b = (
            (np.random.default_rng(seed), np.random.default_rng(seed))
            if shared_rng
            else (seed, seed)
        )
        fast = FlowChurnModel(ft, seed_or_rng=rng_a, **kw)
        ref = ReferenceFlowChurnModel(ft, seed_or_rng=rng_b, **kw)
        for u in utilizations:
            assert _rows(fast.advance(u)) == _rows(ref.advance(u))
            assert (fast.births, fast.deaths, fast.epoch) == (ref.births, ref.deaths, ref.epoch)
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state
        if shared_rng:
            assert rng_a.random() == rng_b.random()

    def test_source_alone_in_lowest_bucket(self, monkeypatch):
        """The destination pick moves up a bucket when the chosen
        source is the only least-loaded destination; a fixed config
        reaches that case and still matches the reference."""
        from repro.flows.dynamics import _EndpointLoads

        hits = []
        pick = _EndpointLoads.pick

        def spy(self, rng, exclude=-1):
            lowest = next(b for b in self.buckets if b)
            if lowest == [exclude]:
                hits.append(exclude)
            return pick(self, rng, exclude)

        monkeypatch.setattr(_EndpointLoads, "pick", spy)
        ft = FatTree(4)
        kw = dict(flows_per_host=2.0, mean_lifetime_epochs=1.0, seed_or_rng=1)
        fast, ref = FlowChurnModel(ft, **kw), ReferenceFlowChurnModel(ft, **kw)
        for _ in range(6):
            assert _rows(fast.advance(0.3)) == _rows(ref.advance(0.3))
        assert hits

    def test_rejects_infinite_access_capacity(self):
        """Demands are sized against the access link, so an unbounded
        one would make every demand infinite."""
        import networkx as nx

        from repro.topology.graph import NodeKind, Topology

        g = nx.Graph()
        g.add_node("s", kind=NodeKind.EDGE)
        for h in ("a", "b"):
            g.add_node(h, kind=NodeKind.HOST)
            g.add_edge(h, "s", capacity=math.inf)
        with pytest.raises(ConfigurationError, match="access capacity"):
            FlowChurnModel(Topology(g))


class TestMilpFallback:
    def test_fallback_disabled_raises(self, ft4):
        """Without a fallback limit, an unpackable epoch raises."""
        from repro.errors import InfeasibleError
        from repro.flows import Flow, FlowClass, TrafficSet

        # Two 600 Mbps elephants from the same host cannot be routed.
        traffic = TrafficSet(
            [
                Flow(f"e{i}", "h0_0_0", "h1_0_0", 6e8, FlowClass.LATENCY_TOLERANT)
                for i in range(2)
            ]
        )
        ctrl = SdnController(GreedyConsolidator(ft4))
        with pytest.raises(InfeasibleError):
            ctrl.run_epoch(traffic)

    def test_fallback_absorbs_heuristic_failure(self, ft4):
        """When the heuristic strands a flow, the controller retries
        with the exact MILP and adopts its result."""
        from repro.errors import InfeasibleError

        class AlwaysStrands(GreedyConsolidator):
            def consolidate(self, traffic, scale_factor=1.0, **kwargs):
                raise InfeasibleError("greedy stranded a flow")

        wl = SearchWorkload(ft4)
        traffic = wl.query_flows()
        ctrl = SdnController(AlwaysStrands(ft4), milp_fallback_time_limit_s=120.0)
        out = ctrl.run_epoch(traffic)
        assert ctrl.milp_fallback_count == 1
        assert out.result.solver == "milp"
        assert ctrl.current_subnet is not None
        validate_result(ft4, traffic, out.result)

    def test_fallback_preserves_genuine_infeasibility(self, ft4):
        """Physically unroutable traffic still raises, fallback or not."""
        from repro.errors import InfeasibleError
        from repro.flows import Flow, FlowClass, TrafficSet

        traffic = TrafficSet(
            [
                Flow(f"e{i}", "h0_0_0", "h1_0_0", 6e8, FlowClass.LATENCY_TOLERANT)
                for i in range(2)
            ]
        )
        ctrl = SdnController(
            GreedyConsolidator(ft4), milp_fallback_time_limit_s=60.0
        )
        with pytest.raises(InfeasibleError):
            ctrl.run_epoch(traffic)
