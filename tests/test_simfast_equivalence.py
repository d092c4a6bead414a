"""Tabulated-engine equivalence: bit-identical to the mixture oracle.

The :mod:`repro.simfast` tables are how every VP governor decides, not
an approximation: frequency decisions, energy and latency tails must be
exactly equal (``==`` on floats, not allclose) to the per-request
mixture evaluation kept in ``tests/oracles/server.py`` — for every VP
governor, including the EDF-reordering ones whose lockstep queue must
replay the core's stable sort.  Production points run through the
one-point lockstep path (:func:`run_multipoint_simulation`); the oracle
runs on the reference event-heap loop
(:func:`~tests.oracles.server.scalar_server_simulation`), the only
engine that calls its mixture.  A golden-hash regression additionally
pins a full fig. 12 operating point to a digest captured from the
mixture implementation, so neither side can drift silently.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import (
    EpronsNoReorderGovernor,
    EpronsServerGovernor,
    QueueSnapshot,
    RubikGovernor,
    RubikPlusGovernor,
)
from repro.power.sleep import POWERNAP_SLEEP
from repro.sim.runner import ServerSimConfig, constant_latency_sampler
from repro.simfast import MultipointPoint, run_multipoint_simulation
from tests.oracles import server as oracle
from tests.oracles.server import reference_governor, scalar_server_simulation

VP_GOVERNORS = (
    RubikGovernor,
    RubikPlusGovernor,
    EpronsNoReorderGovernor,
    EpronsServerGovernor,
)


@pytest.fixture(scope="module", params=VP_GOVERNORS, ids=lambda c: c.name)
def governor_pair(request, service_model, ladder):
    """(production, oracle) instances of one governor class — module
    scoped so the convolution caches and VP tables build once."""
    cls = request.param
    return cls(service_model, ladder), reference_governor(cls)(service_model, ladder)


# -- decision equivalence on randomized snapshots ----------------------------------

# Deadline slacks spanning blown (< 0), tight and loose regimes, at
# sub-grid resolution so floor-bin boundaries get exercised.
_slack = st.floats(-0.02, 0.08, allow_nan=False, allow_infinity=False)


@st.composite
def queue_snapshots(draw):
    now = draw(st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
    queued = tuple(now + s for s in draw(st.lists(_slack, max_size=8)))
    if draw(st.booleans()):
        in_service_deadline = now + draw(_slack)
        completed = draw(st.one_of(st.none(), st.floats(0.0, 2e-3)))
    else:
        in_service_deadline = None
        completed = None
    return QueueSnapshot(
        now=now,
        in_service_completed_work=completed,
        in_service_deadline=in_service_deadline,
        queued_deadlines=queued,
    )


@settings(max_examples=120, deadline=None)
@given(snapshot=queue_snapshots())
def test_snapshot_decisions_identical(governor_pair, snapshot):
    tabulated, reference = governor_pair
    assert tabulated.select_frequency(snapshot) == reference.select_frequency(snapshot)


# -- full-simulation equivalence ---------------------------------------------------


def run_both(governor_cls, service_model, ladder, config):
    """The same point on the production one-point path and on the
    oracle, which only the reference loop can drive."""
    (production,) = run_multipoint_simulation(
        service_model,
        [
            MultipointPoint(
                config=config,
                governor_factory=lambda: governor_cls(service_model, ladder),
            )
        ],
    )
    oracle_cls = reference_governor(governor_cls)
    reference = scalar_server_simulation(
        service_model, lambda: oracle_cls(service_model, ladder), config
    )
    return production, reference


@pytest.mark.parametrize("governor_cls", VP_GOVERNORS, ids=lambda c: c.name)
def test_full_simulation_identical(governor_cls, service_model, ladder):
    config = ServerSimConfig(
        utilization=0.4,
        latency_constraint_s=30e-3,
        n_cores=2,
        duration_s=6.0,
        warmup_s=1.0,
        seed=11,
    )
    tabulated, reference = run_both(governor_cls, service_model, ladder, config)
    assert tabulated == reference


def test_full_simulation_identical_with_sleep_and_reply(service_model, ladder):
    """Under sleep transitions and reply-latency deadline wiring, the
    lockstep table decisions track the oracle's mixture exactly."""
    config = ServerSimConfig(
        utilization=0.25,
        latency_constraint_s=30e-3,
        n_cores=2,
        duration_s=6.0,
        warmup_s=1.0,
        seed=5,
    )
    kwargs = dict(
        sleep_model=POWERNAP_SLEEP,
        reply_latency_sampler=constant_latency_sampler(1e-3),
    )
    (tabulated,) = run_multipoint_simulation(
        service_model,
        [
            MultipointPoint(
                config=config,
                governor_factory=lambda: EpronsServerGovernor(service_model, ladder),
            )
        ],
        **kwargs,
    )
    oracle_cls = reference_governor(EpronsServerGovernor)
    reference = scalar_server_simulation(
        service_model, lambda: oracle_cls(service_model, ladder), config, **kwargs
    )
    assert tabulated == reference


def test_oracle_run_evaluates_the_mixture(service_model, ladder, monkeypatch):
    """A reference governor is a ``VPGovernor`` subclass, which the
    lockstep engine would price on its tables: oracle runs must go
    through the reference loop and actually build mixture queues."""
    built = []
    original = oracle.EquivalentQueue.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(oracle.EquivalentQueue, "__init__", counting_init)
    config = ServerSimConfig(
        utilization=0.3,
        latency_constraint_s=30e-3,
        n_cores=1,
        duration_s=2.0,
        warmup_s=0.5,
    )
    run_both(RubikGovernor, service_model, ladder, config)
    assert built


# -- golden-hash regression on a fig. 12 point -------------------------------------

#: Captured from the mixture implementation before the tables existed
#: (rubik, eprons-server), from the scalar loop before TimeTrader ran
#: lockstep (timetrader, no-pm = ``MaxFrequencyGovernor``), and from it
#: before the clairvoyant oracle and PowerNap sleep did (the rest; a
#: ``+round-robin`` point dispatches round-robin); production and
#: oracle must all keep reproducing them bit for bit.
FIG12_POINT_DIGESTS = {
    "rubik": "d9bb4d2221367e686e318ae932298b236e0b9958de2059cbeba3c3b3f94c5919",
    "eprons-server": "11b53f7fce290a3fc9d0e6fb9676f1860b427ebaf075c9fcbea4b20276d98afa",
    "timetrader": "7bbd9a3ee743d07b294f413ee85afbdcbbeb72facbee2c437743147193975596",
    "no-pm": "6d9527964cb6ec5e9abc3bbccfd261f29854c9affc91da9e08fbe7970e8fd51c",
    "oracle": "689b44794d0c4878b177337b0772a25000cb13136dfeef85d0e08d3aa43b930c",
    "no-pm+powernap": "6d0696e76aadcdd7caa329307f9f8420c7ceac91a8fb8dad5b1bdad5e29b5060",
    "eprons-server+powernap": "7915c6ec8f9aa243e0ca22d87d4f849ae75162fb6341ab3b44415ac1017daedf",
    "timetrader+powernap": "278a53bab28483df7df43736fc9d13996504a09c22e8c233dd3be10ea2a1c2dd",
    "eprons-server+powernap+round-robin": (
        "c4bdc1cb9c8d2a32c201a6b8f30a671ace4746cb1db79d3554ff24c8de13a658"
    ),
}


def result_digest(result) -> str:
    def summary(s):
        return [s.count] + [
            float(v).hex() for v in (s.mean, s.p50, s.p90, s.p95, s.p99, s.max)
        ]

    payload = (
        result.governor,
        result.n_completed,
        float(result.cpu_power_watts).hex(),
        float(result.server_power_watts).hex(),
        summary(result.total_latency),
        summary(result.sojourn),
        float(result.violation_rate).hex(),
        float(result.mean_busy_frequency_hz).hex(),
        float(result.mean_busy_fraction).hex(),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize(
    "governor_cls", [RubikGovernor, EpronsServerGovernor], ids=lambda c: c.name
)
def test_fig12_point_golden_hash(governor_cls, service_model, ladder):
    config = ServerSimConfig(
        utilization=0.3,
        latency_constraint_s=30e-3,
        n_cores=2,
        duration_s=12.0,
        warmup_s=4.0,
        seed=3,
    )
    tabulated, reference = run_both(governor_cls, service_model, ladder, config)
    assert tabulated == reference
    digest = result_digest(tabulated)
    assert digest == FIG12_POINT_DIGESTS[governor_cls.name]


# -- instrumentation ---------------------------------------------------------------


def test_decisions_counted_on_both_engines(service_model, ladder):
    config = ServerSimConfig(
        utilization=0.3,
        latency_constraint_s=30e-3,
        n_cores=1,
        duration_s=2.0,
        warmup_s=0.5,
    )
    for cls in (RubikGovernor, reference_governor(RubikGovernor)):
        stats: dict = {}
        scalar_server_simulation(
            service_model, lambda: cls(service_model, ladder), config, stats_out=stats
        )
        assert stats["n_decisions"] > 0
        assert stats["n_events"] > stats["n_decisions"]
