"""Lockstep engine: bit-identical to the event-heap reference loop.

``repro.simfast.multipoint`` runs each point of a list through its own
per-core event loops; its hard contract is that every per-point result
equals the reference ``scalar_server_simulation`` in
``tests/oracles/server.py`` with ``==`` on floats — no tolerance.
These tests pin that contract on single points, fixed and mixed point
lists, randomized lists, the fig. 12 golden digests, TimeTrader's
timer, the clairvoyant oracle, PowerNap sleep and the joint plural
API, and check that every production entry runs one lockstep point per
sweep task.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consolidation import route_on_subnet
from repro.control.latency_monitor import LatencyMonitor
from repro.core import EpronsDatacenter, JointSimParams, evaluate_operating_point
from repro.core.joint import evaluate_operating_points
from repro.errors import ConfigurationError, InfeasibleError
from repro.exec import ExecContext, run_sweep, use_context
from repro.exec.ops import (
    diurnal_profile_op,
    governor_factory,
    joint_eval_op,
    server_sim_op,
)
from repro.experiments.fig13_joint_power import build_tasks
from repro.policies import (
    EpronsNoReorderGovernor,
    EpronsServerGovernor,
    MaxFrequencyGovernor,
    OracleGovernor,
    RubikGovernor,
    RubikPlusGovernor,
    TimeTraderGovernor,
)
from repro.netsim.network import NetworkModel
from repro.power.sleep import POWERNAP_SLEEP, SleepStateModel
from repro.server import XEON_LADDER
from repro.sim.runner import (
    ServerSimConfig,
    constant_latency_sampler,
    run_server_simulation,
)
from repro.simfast import MultipointPoint, run_multipoint_simulation
from repro.topology import aggregation_policy
from repro.workloads import SearchWorkload

from benchmarks import bench_server
from tests.oracles.server import scalar_server_simulation
from tests.test_simfast_equivalence import FIG12_POINT_DIGESTS, result_digest

VP_GOVERNORS = (
    RubikGovernor,
    RubikPlusGovernor,
    EpronsNoReorderGovernor,
    EpronsServerGovernor,
)


def _config(constraint_s: float = 30e-3, **overrides) -> ServerSimConfig:
    base = dict(
        utilization=0.35,
        latency_constraint_s=constraint_s,
        n_cores=2,
        duration_s=6.0,
        warmup_s=1.0,
        seed=11,
    )
    base.update(overrides)
    return ServerSimConfig(**base)


def _factory(governor_cls, service_model, ladder):
    if governor_cls is MaxFrequencyGovernor:
        return lambda: MaxFrequencyGovernor(ladder)
    return lambda: governor_cls(service_model, ladder)


def _scalar(service_model, factory, config, **kwargs):
    return scalar_server_simulation(service_model, factory, config, **kwargs)


def _one_point(service_model, factory, config):
    (result,) = run_multipoint_simulation(
        service_model, [MultipointPoint(config=config, governor_factory=factory)]
    )
    return result


# -- single-point parity -----------------------------------------------------------


@pytest.mark.parametrize(
    "governor_cls", VP_GOVERNORS + (MaxFrequencyGovernor,), ids=lambda c: c.name
)
def test_runner_engine_switch_matches_tabulated(governor_cls, service_model, ladder):
    """A one-point lockstep run equals the one-point tabulated run."""
    config = _config()
    factory = _factory(governor_cls, service_model, ladder)
    assert _one_point(service_model, factory, config) == _scalar(
        service_model, factory, config
    )


# -- grid vs per-point scalar ------------------------------------------------------


def test_constraint_grid_matches_scalar(service_model, ladder):
    constraints = np.linspace(19e-3, 40e-3, 8)
    factory = _factory(EpronsServerGovernor, service_model, ladder)
    points = [
        MultipointPoint(config=_config(float(L)), governor_factory=factory)
        for L in constraints
    ]
    stats: dict = {}
    grid = run_multipoint_simulation(service_model, points, stats_out=stats)
    assert stats["n_points"] == 8
    assert stats["n_decisions"] > 0
    for L, result in zip(constraints, grid):
        assert result == _scalar(service_model, factory, _config(float(L)))


def test_mixed_governor_grid_matches_scalar(service_model, ladder):
    """Heterogeneous policies in one list each land bit-identical, in
    input order."""
    cells = [
        (cls, L)
        for cls in (RubikGovernor, EpronsServerGovernor, MaxFrequencyGovernor)
        for L in (22e-3, 30e-3, 38e-3)
    ]
    points = [
        MultipointPoint(
            config=_config(L),
            governor_factory=_factory(cls, service_model, ladder),
        )
        for cls, L in cells
    ]
    grid = run_multipoint_simulation(service_model, points)
    for (cls, L), result in zip(cells, grid):
        factory = _factory(cls, service_model, ladder)
        assert result == _scalar(service_model, factory, _config(L))


def test_reply_latency_grid_matches_scalar(service_model, ladder):
    """The reply-latency deadline wiring must survive the lockstep
    deadline precomputation."""
    factory = _factory(EpronsServerGovernor, service_model, ladder)
    sampler = constant_latency_sampler(1e-3)
    points = [
        MultipointPoint(config=_config(L), governor_factory=factory)
        for L in (24e-3, 32e-3)
    ]
    grid = run_multipoint_simulation(
        service_model, points, reply_latency_sampler=sampler
    )
    for point, result in zip(points, grid):
        assert result == _scalar(
            service_model, factory, point.config, reply_latency_sampler=sampler
        )


def test_empty_points_returns_empty(service_model):
    assert run_multipoint_simulation(service_model, []) == []


# -- fig. 12 golden digests through the multipoint path ----------------------------


_FIG12_CONFIG = ServerSimConfig(
    utilization=0.3,
    latency_constraint_s=30e-3,
    n_cores=2,
    duration_s=12.0,
    warmup_s=4.0,
    seed=3,
)


def _governor_factory(name, service_model, ladder, constraint_s=30e-3):
    if name == "timetrader":
        return _timetrader(ladder, constraint_s)
    if name == "oracle":
        return lambda: OracleGovernor(service_model.frequency_model, ladder)
    cls = {
        "rubik": RubikGovernor,
        "eprons-server": EpronsServerGovernor,
        "no-pm": MaxFrequencyGovernor,
    }[name]
    return _factory(cls, service_model, ladder)


def _fig12_point(name, service_model, ladder):
    """``(factory, config, kwargs)`` of a digest name such as
    ``"eprons-server+powernap+round-robin"``: a governor, optionally
    PowerNap sleep and round-robin dispatch, at the fig. 12 point."""
    governor, *extras = name.split("+")
    config = _FIG12_CONFIG
    if "round-robin" in extras:
        config = ServerSimConfig(**{**vars(config), "dispatch": "round-robin"})
    kwargs = {"sleep_model": POWERNAP_SLEEP} if "powernap" in extras else {}
    return _governor_factory(governor, service_model, ladder), config, kwargs


@pytest.mark.parametrize("name", sorted(FIG12_POINT_DIGESTS))
def test_fig12_point_golden_hash_multipoint(name, service_model, ladder):
    factory, config, kwargs = _fig12_point(name, service_model, ladder)
    (result,) = run_multipoint_simulation(
        service_model, [MultipointPoint(config=config, governor_factory=factory)],
        **kwargs,
    )
    assert result_digest(result) == FIG12_POINT_DIGESTS[name]
    assert run_server_simulation(service_model, factory, config, **kwargs) == result


@pytest.mark.parametrize("name", sorted(FIG12_POINT_DIGESTS))
def test_fig12_point_golden_hash_scalar(name, service_model, ladder):
    """The reference loop the lockstep engine is held to reproduces
    every digest too."""
    factory, config, kwargs = _fig12_point(name, service_model, ladder)
    result = _scalar(service_model, factory, config, **kwargs)
    assert result_digest(result) == FIG12_POINT_DIGESTS[name]


# -- randomized grids --------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_grids_match_scalar(data, service_model, ladder):
    n = data.draw(st.integers(2, 5), label="n_points")
    classes = data.draw(
        st.lists(st.sampled_from(VP_GOVERNORS), min_size=n, max_size=n),
        label="governors",
    )
    constraints = data.draw(
        st.lists(
            st.floats(0.018, 0.045, allow_nan=False), min_size=n, max_size=n
        ),
        label="constraints",
    )
    seed = data.draw(st.integers(0, 4), label="seed")
    utilization = data.draw(st.sampled_from((0.2, 0.35, 0.5)), label="utilization")
    configs = [
        _config(L, utilization=utilization, duration_s=3.0, warmup_s=0.5, seed=seed)
        for L in constraints
    ]
    points = [
        MultipointPoint(
            config=cfg, governor_factory=_factory(cls, service_model, ladder)
        )
        for cls, cfg in zip(classes, configs)
    ]
    grid = run_multipoint_simulation(service_model, points)
    for cls, cfg, result in zip(classes, configs, grid):
        factory = _factory(cls, service_model, ladder)
        assert result == _scalar(service_model, factory, cfg)


# -- TimeTrader: timer ticks and the completion window -----------------------------


def _reply_sampler(n, rng):
    return rng.uniform(0.0, 2e-3, n)


def _timetrader(ladder, constraint_s=30e-3):
    return lambda: TimeTraderGovernor(ladder, constraint_s)


#: (duration_s, warmup_s): fig. 15's TimeTrader shape scaled down — a
#: warmup ending on the 4th tick and a run ending on the 5th — and an
#: off-grid end and warmup.
_ON_TICK, _OFF_TICK = (25.0, 20.0), (17.0, 3.3)

#: A pairwise cover of seed × n_cores × utilization × phase shape ×
#: reply sampler × dispatch (every pair of values meets in some row),
#: plus the heaviest corner.
_TIMETRADER_CASES = [
    (0, 3, 0.05, _OFF_TICK, False, "round-robin"),
    (5, 1, 0.05, _ON_TICK, True, "random"),
    (0, 1, 0.6, _OFF_TICK, False, "random"),
    (5, 3, 0.6, _ON_TICK, True, "round-robin"),
    (0, 1, 0.85, _ON_TICK, True, "round-robin"),
    (0, 3, 0.85, _OFF_TICK, True, "random"),
    (5, 1, 0.85, _OFF_TICK, False, "round-robin"),
    (5, 3, 0.85, _ON_TICK, False, "random"),
    (0, 3, 0.85, _ON_TICK, True, "round-robin"),
]


@pytest.mark.parametrize(
    "seed,n_cores,utilization,phases,reply,dispatch",
    _TIMETRADER_CASES,
    ids=[
        f"s{c[0]}-c{c[1]}-u{c[2]}-{'on' if c[3] == _ON_TICK else 'off'}-tick"
        f"-{'reply' if c[4] else 'noreply'}-{c[5]}"
        for c in _TIMETRADER_CASES
    ],
)
def test_timetrader_lockstep_matches_scalar(
    service_model, ladder, seed, n_cores, utilization, phases, reply, dispatch
):
    """Timer ticks (inclusive at each phase end) and the completion
    window replay the scalar loop bit for bit."""
    assert TimeTraderGovernor.timer_period_s == 5.0  # _ON_TICK's arithmetic
    duration_s, warmup_s = phases
    config = _config(
        utilization=utilization, n_cores=n_cores, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed, dispatch=dispatch,
    )
    factory = _timetrader(ladder)
    kwargs = {"reply_latency_sampler": _reply_sampler} if reply else {}
    (result,) = run_multipoint_simulation(
        service_model, [MultipointPoint(config=config, governor_factory=factory)],
        **kwargs,
    )
    assert result == _scalar(service_model, factory, config, **kwargs)


def _recording_timetrader(ladder, constraint_s, logs):
    """A TimeTrader factory whose governors log every hook call."""

    class Recording(TimeTraderGovernor):
        def on_complete(self, total_latency_s, deadline_met, now):
            self.log.append(("complete", total_latency_s, deadline_met, now))
            super().on_complete(total_latency_s, deadline_met, now)

        def on_timer(self, now):
            super().on_timer(now)
            self.log.append(("timer", now, self.current_frequency))

    def factory():
        gov = Recording(ladder, constraint_s)
        gov.log = []
        logs.append(gov.log)
        return gov

    return factory


def test_timetrader_hooks_replay_the_scalar_loop(service_model, ladder):
    """Per core, the lockstep engine feeds the governor the same
    completion latencies (Request.total_latency's op order), deadline
    flags and tick times as the scalar loop — ticks on the warmup end
    and the run end included — and the governor leaves f_max."""
    config = _config(utilization=0.6, n_cores=2, duration_s=20.0, warmup_s=10.0)
    lockstep_logs: list = []
    scalar_logs: list = []
    (result,) = run_multipoint_simulation(
        service_model,
        [MultipointPoint(
            config=config,
            governor_factory=_recording_timetrader(ladder, 30e-3, lockstep_logs),
        )],
        reply_latency_sampler=_reply_sampler,
    )
    expected = _scalar(
        service_model, _recording_timetrader(ladder, 30e-3, scalar_logs), config,
        reply_latency_sampler=_reply_sampler,
    )
    assert result == expected
    assert len(lockstep_logs) == config.n_cores
    assert lockstep_logs == scalar_logs
    for log in lockstep_logs:
        ticks = [entry for entry in log if entry[0] == "timer"]
        assert [t[1] for t in ticks] == [5.0, 10.0, 15.0, 20.0]
        assert min(t[2] for t in ticks) < ladder.f_max
    assert result.mean_busy_frequency_hz < ladder.f_max


def test_timetrader_mixed_grid_runs_lockstep(service_model, ladder):
    """TimeTrader at two constraints in one list with VP and constant
    points."""
    constraints = (25e-3, 35e-3)
    entries = [
        (_config(L), _timetrader(ladder, L)) for L in constraints
    ] + [
        (_config(30e-3), _factory(EpronsServerGovernor, service_model, ladder)),
        (_config(30e-3), _factory(MaxFrequencyGovernor, service_model, ladder)),
    ]
    grid = run_multipoint_simulation(
        service_model,
        [MultipointPoint(config=cfg, governor_factory=f) for cfg, f in entries],
    )
    for (cfg, factory), result in zip(entries, grid):
        assert result == _scalar(service_model, factory, cfg)


# -- clairvoyant oracle and PowerNap sleep ----------------------------------------


def test_oracle_mixed_grid_runs_lockstep(service_model, ladder):
    """The clairvoyant oracle decides from queue snapshots with true
    remaining works, mixed freely with table points in one list."""
    config = _config()
    oracle = _governor_factory("oracle", service_model, ladder)
    epr = _factory(EpronsServerGovernor, service_model, ladder)
    grid = run_multipoint_simulation(
        service_model,
        [
            MultipointPoint(config=config, governor_factory=oracle),
            MultipointPoint(config=config, governor_factory=epr),
        ],
    )
    assert grid[0] == _scalar(service_model, oracle, config)
    assert grid[1] == _scalar(service_model, epr, config)
    assert grid[0].cpu_power_watts < grid[1].cpu_power_watts


def test_sleep_model_runs_lockstep(service_model, ladder):
    config = _config(utilization=0.25)
    factory = _factory(EpronsServerGovernor, service_model, ladder)
    (result,) = run_multipoint_simulation(
        service_model,
        [MultipointPoint(config=config, governor_factory=factory)],
        sleep_model=POWERNAP_SLEEP,
    )
    assert result == _scalar(service_model, factory, config, sleep_model=POWERNAP_SLEEP)
    awake = _one_point(service_model, factory, config)
    assert result.cpu_power_watts < awake.cpu_power_watts


def test_jsq_dispatch_rejected():
    with pytest.raises(ConfigurationError, match="dispatch"):
        _config(dispatch="jsq")


#: Sleep models with the structural edge cases: zero entry and wake
#: latency, and a wake as long as a typical service.
_SLEEP_MODELS = {
    "powernap": POWERNAP_SLEEP,
    "instant": SleepStateModel(sleep_watts=0.0, entry_latency_s=0.0, wake_latency_s=0.0),
    "slow-wake": SleepStateModel(sleep_watts=0.5, entry_latency_s=5e-4, wake_latency_s=4e-3),
}

#: A pairwise cover of governor × sleep model × seed × n_cores ×
#: utilization × reply sampler × dispatch (every pair of values meets
#: in some row); "none" rows price the oracle without sleep.
_SLEEP_CASES = [
    ("oracle", "none", 0, 1, 0.1, False, "random"),
    ("oracle", "powernap", 5, 3, 0.6, True, "round-robin"),
    ("oracle", "instant", 5, 1, 0.35, True, "random"),
    ("oracle", "slow-wake", 0, 3, 0.1, False, "round-robin"),
    ("oracle", "none", 5, 3, 0.6, True, "random"),
    ("no-pm", "powernap", 0, 1, 0.35, False, "round-robin"),
    ("no-pm", "instant", 5, 3, 0.1, True, "round-robin"),
    ("no-pm", "slow-wake", 5, 1, 0.6, True, "random"),
    ("rubik", "powernap", 5, 1, 0.1, True, "random"),
    ("rubik", "instant", 0, 3, 0.6, False, "random"),
    ("rubik", "slow-wake", 0, 3, 0.35, True, "round-robin"),
    ("eprons-server", "powernap", 0, 3, 0.35, True, "random"),
    ("eprons-server", "instant", 0, 1, 0.6, False, "round-robin"),
    ("eprons-server", "slow-wake", 5, 3, 0.1, False, "random"),
    ("timetrader", "powernap", 5, 3, 0.1, False, "round-robin"),
    ("timetrader", "instant", 5, 1, 0.35, False, "random"),
    ("timetrader", "slow-wake", 0, 1, 0.6, True, "round-robin"),
]


@pytest.mark.parametrize(
    "governor,sleep,seed,n_cores,utilization,reply,dispatch",
    _SLEEP_CASES,
    ids=[
        f"{c[0]}-{c[1]}-s{c[2]}-c{c[3]}-u{c[4]}-{'reply' if c[5] else 'noreply'}-{c[6]}"
        for c in _SLEEP_CASES
    ],
)
def test_oracle_and_sleep_lockstep_match_scalar(
    service_model, ladder, governor, sleep, seed, n_cores, utilization, reply, dispatch
):
    """The oracle's snapshot decisions and the sleep state machine,
    under every governor kind, replay the reference loop bit for bit.
    TimeTrader rows span two ticks, one of them in the warmup."""
    config = _config(
        utilization=utilization, n_cores=n_cores, duration_s=11.0, warmup_s=3.0,
        seed=seed, dispatch=dispatch,
    )
    factory = _governor_factory(governor, service_model, ladder)
    kwargs = {"reply_latency_sampler": _reply_sampler} if reply else {}
    if sleep != "none":
        kwargs["sleep_model"] = _SLEEP_MODELS[sleep]
    (result,) = run_multipoint_simulation(
        service_model, [MultipointPoint(config=config, governor_factory=factory)],
        **kwargs,
    )
    assert result == _scalar(service_model, factory, config, **kwargs)


_finite_latency = st.floats(0.0, 5e-3, allow_nan=False, allow_infinity=False)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_random_sleep_points_match_scalar(data, service_model, ladder):
    governor = data.draw(
        st.sampled_from(("oracle", "no-pm", "eprons-server", "timetrader")),
        label="governor",
    )
    sleep = data.draw(
        st.builds(
            SleepStateModel,
            sleep_watts=st.floats(0.0, 1.0, allow_nan=False),
            entry_latency_s=_finite_latency,
            wake_latency_s=_finite_latency,
        ),
        label="sleep",
    )
    config = _config(
        utilization=data.draw(st.sampled_from((0.1, 0.3, 0.6)), label="utilization"),
        n_cores=data.draw(st.integers(1, 3), label="n_cores"),
        duration_s=6.0,
        warmup_s=data.draw(st.sampled_from((0.0, 1.0, 5.0)), label="warmup"),
        seed=data.draw(st.integers(0, 6), label="seed"),
        dispatch=data.draw(st.sampled_from(("random", "round-robin")), label="dispatch"),
    )
    factory = _governor_factory(governor, service_model, ladder)
    (result,) = run_multipoint_simulation(
        service_model, [MultipointPoint(config=config, governor_factory=factory)],
        sleep_model=sleep,
    )
    assert result == _scalar(service_model, factory, config, sleep_model=sleep)


@pytest.mark.parametrize("name,utilization,constraint_s", bench_server.DEFAULT_POINTS)
def test_bench_server_points_match_scalar(service_model, name, utilization, constraint_s):
    """``benchmarks/bench_server.py``'s points at its CI ``--quick``
    shape (12 s, 2 cores, seed 3) equal the reference loop."""
    config = bench_server.point_config(utilization, constraint_s, 12.0, 2, 3)
    factory = bench_server.governor_factory(name, service_model)
    assert _one_point(service_model, factory, config) == _scalar(
        service_model, factory, config
    )


# -- independent points ------------------------------------------------------------


def test_mixed_point_list_matches_scalar(service_model, ladder):
    """Points share nothing: a list mixing utilization, core count,
    seed and dispatch equals per-point scalar runs, in input order."""
    factory = _factory(EpronsServerGovernor, service_model, ladder)
    configs = [
        _config(),
        _config(utilization=0.5),
        _config(n_cores=3),
        _config(seed=99),
        _config(dispatch="round-robin"),
    ]
    grid = run_multipoint_simulation(
        service_model,
        [MultipointPoint(config=cfg, governor_factory=factory) for cfg in configs],
    )
    for cfg, result in zip(configs, grid):
        assert result == _scalar(service_model, factory, cfg)


# -- joint plural API --------------------------------------------------------------


def test_evaluate_operating_points_matches_scalar(ft4):
    workload = SearchWorkload(ft4)
    traffic = workload.traffic(0.1, seed_or_rng=1)
    consolidation = route_on_subnet(
        aggregation_policy(workload.topology, 2), traffic
    )
    params = JointSimParams(sim_cores=1, duration_s=5.0, warmup_s=1.0)
    constraints = (22e-3, 30e-3, 38e-3)

    points = []
    for L in constraints:
        wl = workload.with_constraint(L)
        points.append(
            (
                L,
                0.3,
                lambda wl=wl: EpronsServerGovernor(wl.service_model, XEON_LADDER),
                None,
            )
        )
    plural = evaluate_operating_points(
        workload, traffic, consolidation, points, params=params
    )

    sampler = LatencyMonitor(
        NetworkModel(workload.topology, traffic, consolidation.routing)
    ).pooled_sampler(seed_or_rng=params.seed)
    for L, point, ev in zip(constraints, points, plural):
        wl = workload.with_constraint(L)
        single = evaluate_operating_point(
            wl, traffic, consolidation, 0.3, point[2], params=params
        )
        assert ev.total_watts == single.total_watts
        assert ev.query_p95_s == single.query_p95_s
        assert ev.violation_rate == single.violation_rate
        assert ev.sla_met == single.sla_met
        assert ev.server_result == single.server_result
        config = ServerSimConfig(
            utilization=0.3,
            latency_constraint_s=L,
            network_budget_s=wl.network_budget_s,
            n_cores=params.sim_cores,
            duration_s=params.duration_s,
            warmup_s=params.warmup_s,
            static_watts=params.static_watts,
            seed=params.seed,
        )
        assert ev.server_result == _scalar(
            wl.service_model, point[2], config, network_latency_sampler=sampler
        )


# -- production routing ------------------------------------------------------------


@pytest.fixture()
def des_calls(monkeypatch):
    """Count DES entries and calls of the public one-point wrapper
    wherever a loaded ``repro`` module holds them (every caller is
    imported at the top of this file, so none binds a wrapper left over
    from an earlier test)."""
    import sys

    calls = {"multipoint": 0, "one_point": 0}
    for kind, fn in (
        ("multipoint", run_multipoint_simulation),
        ("one_point", run_server_simulation),
    ):

        def counting(*args, _fn=fn, _kind=kind, **kwargs):
            calls[_kind] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    return calls


LOCKSTEP = {"multipoint": 1, "one_point": 0}


@pytest.mark.parametrize(
    "governor,sleep,expected",
    [
        ("eprons-server", "none", LOCKSTEP),
        ("no-pm", "none", LOCKSTEP),
        ("timetrader", "none", LOCKSTEP),
        ("oracle", "none", LOCKSTEP),
        ("eprons-server", "powernap", LOCKSTEP),
        ("timetrader", "powernap", LOCKSTEP),
    ],
)
def test_server_sim_op_runs_one_point_lockstep(des_calls, governor, sleep, expected):
    server_sim_op(
        arity=4, constraint_ms=30.0, governor=governor, utilization=0.3,
        background=0.1, duration_s=2.0, warmup_s=0.5, n_cores=1, seed=1,
        sleep=sleep,
    )
    assert des_calls == expected


def test_server_sim_op_rejects_unknown_sleep_before_solving(monkeypatch):
    import repro.exec.ops

    def no_solve(**spec):
        raise AssertionError("consolidation solved before the sleep name was checked")

    monkeypatch.setattr(repro.exec.ops, "_cached_consolidation", no_solve)
    with pytest.raises(ConfigurationError, match="deep.*powernap"):
        server_sim_op(
            arity=4, constraint_ms=30.0, governor="eprons-server", utilization=0.3,
            background=0.1, duration_s=2.0, warmup_s=0.5, n_cores=1, seed=1,
            sleep="deep",
        )


def _joint_setup(ft4):
    workload = SearchWorkload(ft4)
    traffic = workload.traffic(0.1, seed_or_rng=1)
    consolidation = route_on_subnet(aggregation_policy(workload.topology, 2), traffic)
    return workload, traffic, consolidation


_JOINT_PARAMS = JointSimParams(sim_cores=1, duration_s=2.0, warmup_s=0.5)


@pytest.mark.parametrize(
    "governor,expected",
    [
        ("eprons-server", LOCKSTEP),
        ("no-pm", LOCKSTEP),
        ("timetrader", LOCKSTEP),
        ("oracle", LOCKSTEP),
    ],
)
def test_evaluate_operating_point_runs_one_point_lockstep(ft4, des_calls, governor, expected):
    workload, traffic, consolidation = _joint_setup(ft4)
    evaluate_operating_point(
        workload, traffic, consolidation, 0.3,
        governor_factory(governor, workload), params=_JOINT_PARAMS,
    )
    assert des_calls == expected


@pytest.mark.parametrize("governor,expected", [(None, LOCKSTEP), ("timetrader", LOCKSTEP)])
def test_datacenter_evaluate_runs_one_point_lockstep(ft4, des_calls, governor, expected):
    workload, traffic, consolidation = _joint_setup(ft4)
    dc = EpronsDatacenter(workload, levels=(2,), params=_JOINT_PARAMS)
    candidate = dc.candidates(0.1)[0]
    factory = governor_factory(governor, workload) if governor else None
    dc.evaluate(candidate, 0.3, factory)
    assert des_calls == expected


def test_fig15_timetrader_profile_makes_no_scalar_call(des_calls):
    """Fig. 15's TimeTrader profiles (60 s runs, 20 s warmup) price
    every utilization on the lockstep engine, in one call."""
    util_grid = (0.2, 0.5)
    out = diurnal_profile_op(
        arity=4, scheme="timetrader", level=0, bg_bucket=0.1,
        util_grid=util_grid, params=JointSimParams(sim_cores=1),
        traffic_seed=1,
    )
    assert out["profile"] is not None
    assert des_calls == LOCKSTEP


def test_fig13_sweep_runs_one_point_per_task(tmp_path, monkeypatch):
    """A fig13 sweep dispatches one plain ``joint-eval`` task per point:
    each feasible task makes one one-point lockstep call, an infeasible
    one none, none calls the one-point wrapper, and every outcome equals
    ``joint_eval_op`` called directly."""
    import repro.sim.runner
    import repro.simfast.multipoint

    # Background 0.5: level 0 and no-pm are feasible, level 3 is not.
    tasks = build_tasks(
        backgrounds=(0.5,),
        constraints_ms=(25.0, 40.0),
        levels=(0, 3),
        params=JointSimParams(sim_cores=1, duration_s=2.0, warmup_s=0.5),
        include_no_pm=True,
        seed=1,
    )
    ctx = ExecContext(jobs=1, cache=False, cache_dir=str(tmp_path / "cache"))
    sizes: list[int] = []
    scalar_calls: list[int] = []

    def multipoint(service_model, points, *args, **kwargs):
        sizes.append(len(points))
        return run_multipoint_simulation(service_model, points, *args, **kwargs)

    def scalar(*args, **kwargs):
        scalar_calls.append(1)
        return run_server_simulation(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(repro.simfast.multipoint, "run_multipoint_simulation", multipoint)
        m.setattr(repro.sim.runner, "run_server_simulation", scalar)
        outs = run_sweep(tasks, ctx=ctx)

    assert sum(o.ok for o in outs) == 4
    assert sum(o.infeasible for o in outs) == 2
    assert sizes == [1, 1, 1, 1]
    assert scalar_calls == []
    with use_context(ctx):
        for out, task in zip(outs, tasks):
            if out.infeasible:
                with pytest.raises(InfeasibleError) as err:
                    joint_eval_op(**task.kwargs)
                assert out.error == str(err.value)
                continue
            direct = joint_eval_op(**task.kwargs)
            assert out.value.server_result == direct.server_result
            assert out.value.breakdown == direct.breakdown
            assert out.value.sla_met == direct.sla_met
