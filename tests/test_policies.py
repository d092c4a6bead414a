"""DVFS governors: per-policy unit behaviour."""

import pytest

from repro.policies import (
    EpronsServerGovernor,
    MaxFrequencyGovernor,
    QueueSnapshot,
    RubikGovernor,
    RubikPlusGovernor,
    TimeTraderGovernor,
)
from repro.server import ConvolutionCache
from repro.units import GHZ
from tests.oracles.server import EquivalentQueue


def snap(now=0.0, completed=0.0, in_deadline=20e-3, queued=()):
    return QueueSnapshot(
        now=now,
        in_service_completed_work=completed,
        in_service_deadline=in_deadline,
        queued_deadlines=tuple(queued),
    )


class TestEquivalentQueue:
    def test_vp_monotone_in_frequency(self, service_model, ladder):
        eq = EquivalentQueue(
            snap(in_deadline=8e-3, queued=[12e-3]),
            service_model,
            ConvolutionCache(service_model.distribution),
        )
        vps = [eq.max_vp(f) for f in ladder]
        assert all(a >= b - 1e-12 for a, b in zip(vps, vps[1:]))

    def test_average_at_most_max(self, service_model, ladder):
        eq = EquivalentQueue(
            snap(in_deadline=8e-3, queued=[10e-3, 14e-3]),
            service_model,
            ConvolutionCache(service_model.distribution),
        )
        for f in (ladder.f_min, ladder.f_max):
            assert eq.average_vp(f) <= eq.max_vp(f) + 1e-12

    def test_mixture_matches_explicit_convolution(self, service_model, ladder):
        """The fast mixture CCDF equals CCDF of the convolved
        equivalent distribution."""
        cache = ConvolutionCache(service_model.distribution)
        s = snap(completed=1e-3, in_deadline=9e-3, queued=[13e-3, 17e-3])
        eq = EquivalentQueue(s, service_model, cache)
        f = 1.8 * GHZ
        speed = service_model.frequency_model.speed_factor(f)
        vps = eq.violation_probabilities(f)
        for i in range(len(eq)):
            explicit = eq.equivalent_distribution(i)
            budget = (eq.deadlines[i] - s.now) / speed
            assert vps[i] == pytest.approx(explicit.ccdf(budget), abs=1e-9)

    def test_longer_queue_higher_vp(self, service_model, ladder):
        cache = ConvolutionCache(service_model.distribution)
        short = EquivalentQueue(snap(queued=[20e-3]), service_model, cache)
        long = EquivalentQueue(snap(queued=[20e-3, 20e-3, 20e-3]), service_model, cache)
        f = ladder.f_max
        assert long.max_vp(f) >= short.max_vp(f)

    def test_tighter_deadline_higher_vp(self, service_model, ladder):
        cache = ConvolutionCache(service_model.distribution)
        loose = EquivalentQueue(snap(in_deadline=30e-3), service_model, cache)
        tight = EquivalentQueue(snap(in_deadline=6e-3), service_model, cache)
        assert tight.max_vp(ladder.f_min) >= loose.max_vp(ladder.f_min)


class TestRubik:
    def test_idle_returns_min(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        s = QueueSnapshot(0.0, None, None, ())
        assert g.select_frequency(s) == ladder.f_min

    def test_loose_deadline_low_frequency(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        assert g.select_frequency(snap(in_deadline=100e-3)) == ladder.f_min

    def test_tight_deadline_high_frequency(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        f = g.select_frequency(snap(in_deadline=7.5e-3))
        assert f > ladder.f_min

    def test_impossible_deadline_runs_flat_out(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        assert g.select_frequency(snap(in_deadline=1e-4)) == ladder.f_max

    def test_vp_constraint_satisfied_at_choice(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        s = snap(in_deadline=10e-3, queued=[15e-3])
        f = g.select_frequency(s)
        eq = EquivalentQueue(s, service_model, ConvolutionCache(service_model.distribution))
        if f < ladder.f_max:
            assert eq.max_vp(f) <= g.target_vp + 1e-12

    def test_flags(self, service_model, ladder):
        g = RubikGovernor(service_model, ladder)
        assert not g.network_aware and not g.reorders_queue
        gp = RubikPlusGovernor(service_model, ladder)
        assert gp.network_aware and not gp.reorders_queue


class TestEpronsServer:
    def test_never_faster_than_rubik(self, service_model, ladder):
        """Average-VP <= max-VP at every frequency, so EPRONS-Server's
        chosen frequency is at most Rubik's (Fig. 4: f_new <= f2)."""
        rub = RubikGovernor(service_model, ladder)
        epr = EpronsServerGovernor(service_model, ladder)
        cases = [
            snap(in_deadline=9e-3, queued=[11e-3]),
            snap(in_deadline=8e-3, queued=[9e-3, 16e-3, 24e-3]),
            snap(completed=2e-3, in_deadline=12e-3, queued=[13e-3]),
            snap(in_deadline=7.2e-3, queued=[7.5e-3]),
        ]
        for s in cases:
            assert epr.select_frequency(s) <= rub.select_frequency(s) + 1e-6

    def test_strictly_slower_with_heterogeneous_deadlines(self, service_model, ladder):
        """One tight + several loose deadlines: averaging lets
        EPRONS-Server pick a visibly lower frequency."""
        s = snap(in_deadline=7.6e-3, queued=[30e-3, 30e-3, 30e-3])
        rub = RubikGovernor(service_model, ladder).select_frequency(s)
        epr = EpronsServerGovernor(service_model, ladder).select_frequency(s)
        assert epr < rub

    def test_average_vp_constraint_at_choice(self, service_model, ladder):
        g = EpronsServerGovernor(service_model, ladder)
        s = snap(in_deadline=9e-3, queued=[12e-3, 18e-3])
        f = g.select_frequency(s)
        eq = EquivalentQueue(s, service_model, ConvolutionCache(service_model.distribution))
        if f < ladder.f_max:
            assert eq.average_vp(f) <= g.target_vp + 1e-12
        if f > ladder.f_min:
            below = ladder.step_down(f)
            assert eq.average_vp(below) > g.target_vp

    def test_flags(self, service_model, ladder):
        g = EpronsServerGovernor(service_model, ladder)
        assert g.network_aware and g.reorders_queue

    def test_idle_returns_min(self, service_model, ladder):
        g = EpronsServerGovernor(service_model, ladder)
        assert g.select_frequency(QueueSnapshot(0.0, None, None, ())) == ladder.f_min


class TestTimeTrader:
    def test_starts_at_max(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        assert g.select_frequency(snap()) == ladder.f_max

    def test_steps_down_when_tail_low(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        for _ in range(50):
            g.on_complete(5e-3, True, 0.0)
        g.on_timer(5.0)
        assert g.current_frequency < ladder.f_max

    def test_descent_capped_at_two_steps(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        for _ in range(50):
            g.on_complete(1e-3, True, 0.0)  # absurdly low tail
        g.on_timer(5.0)
        assert g.current_frequency == pytest.approx(ladder.step_down(ladder.f_max, 2))

    def test_steps_up_fast_when_violating(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        g._frequency = ladder.f_min
        for _ in range(50):
            g.on_complete(40e-3, False, 0.0)
        g.on_timer(5.0)
        assert g.current_frequency == pytest.approx(ladder.step_up(ladder.f_min, 2))

    def test_dead_band_holds(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        g._frequency = 2.0 * GHZ
        for _ in range(50):
            g.on_complete(26e-3, True, 0.0)  # inside [0.80, 0.95] band
        g.on_timer(5.0)
        assert g.current_frequency == pytest.approx(2.0 * GHZ)

    def test_empty_window_no_change(self, ladder):
        g = TimeTraderGovernor(ladder, 30e-3)
        g.on_timer(5.0)
        assert g.current_frequency == ladder.f_max

    def test_invalid_params(self, ladder):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TimeTraderGovernor(ladder, -1.0)
        with pytest.raises(ConfigurationError):
            TimeTraderGovernor(ladder, 30e-3, lower_band=0.9, upper_band=0.8)

    @pytest.mark.parametrize("q", [150.0, -5.0, 0.0, float("nan")])
    def test_tail_quantile_checked_at_construction(self, ladder, q):
        """A bad quantile used to surface only at the first timer tick."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="tail quantile"):
            TimeTraderGovernor(ladder, 30e-3, tail_quantile=q)

    @pytest.mark.parametrize("constraint", [float("nan"), float("inf"), 0.0])
    def test_constraint_must_be_finite_and_positive(self, ladder, constraint):
        """A NaN constraint used to fail every band comparison and run
        the governor silently as no-pm."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="latency constraint"):
            TimeTraderGovernor(ladder, constraint)

    def test_full_quantile_range_accepted(self, ladder):
        assert TimeTraderGovernor(ladder, 30e-3, tail_quantile=100.0).tail_quantile == 100.0


class TestMaxFrequency:
    def test_always_max(self, ladder):
        g = MaxFrequencyGovernor(ladder)
        assert g.select_frequency(snap()) == ladder.f_max
        assert g.select_frequency(QueueSnapshot(0.0, None, None, ())) == ladder.f_max
