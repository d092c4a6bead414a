"""Work distributions: grids, CCDF, convolution, conditioning.

These are the correctness foundation of every VP-based governor, so
they get property-based coverage via hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import signal

from repro.errors import ConfigurationError
from repro.server import ConvolutionCache, WorkDistribution
from repro.server.distributions import DEFAULT_MAX_BINS, fftconvolve

from tests.oracles.distributions import reference_lognormal

DX = 1e-4


def dist_from(pmf):
    return WorkDistribution(DX, pmf)


@st.composite
def pmfs(draw, max_bins=40):
    n = draw(st.integers(2, max_bins))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 1e-6
        )
    )
    return weights


class TestConstruction:
    def test_normalizes(self):
        d = dist_from([2.0, 2.0])
        assert d.pmf.sum() == pytest.approx(1.0)
        assert d.pmf[0] == pytest.approx(0.5)

    def test_trims_trailing_zeros(self):
        d = dist_from([1.0, 1.0, 0.0, 0.0])
        assert d.n_bins == 2

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            dist_from([0.5, -0.5])

    def test_zero_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            dist_from([0.0, 0.0])

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkDistribution(0.0, [1.0])

    def test_point_mass(self):
        d = WorkDistribution.point_mass(DX, 5 * DX)
        assert d.mean() == pytest.approx(5 * DX)
        assert d.ccdf(4.5 * DX) == pytest.approx(1.0)
        assert d.ccdf(5 * DX) == pytest.approx(0.0)

    def test_from_samples_histogram(self):
        samples = np.array([0.0, DX, DX, 2 * DX])
        d = WorkDistribution.from_samples(samples, DX)
        assert d.pmf == pytest.approx([0.25, 0.5, 0.25])

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_samples([], DX)

    def test_from_lognormal_stats(self):
        median, sigma = 3e-3, 0.5
        d = WorkDistribution.from_lognormal(median, sigma, dx=2e-5)
        expected_mean = median * np.exp(sigma**2 / 2.0)
        assert d.mean() == pytest.approx(expected_mean, rel=0.01)
        assert d.quantile(0.5) == pytest.approx(median, rel=0.02)


class TestValidation:
    """Every bad input is a ConfigurationError, not a numpy or float
    error from deep inside the discretization."""

    BAD_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1e-4)

    @pytest.mark.parametrize("bad", BAD_FLOATS)
    def test_lognormal_rejects_bad_median(self, bad):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_lognormal(bad, 0.5, DX)

    @pytest.mark.parametrize("bad", BAD_FLOATS)
    def test_lognormal_rejects_bad_sigma(self, bad):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_lognormal(3e-3, bad, DX)

    @pytest.mark.parametrize("bad", BAD_FLOATS)
    def test_lognormal_rejects_bad_dx(self, bad):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_lognormal(3e-3, 0.5, bad)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
    def test_lognormal_rejects_bad_tail_quantile(self, q):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_lognormal(3e-3, 0.5, DX, tail_quantile=q)

    @pytest.mark.parametrize("max_bins", [0, -1])
    def test_lognormal_rejects_bad_max_bins(self, max_bins):
        with pytest.raises(ConfigurationError):
            WorkDistribution.from_lognormal(3e-3, 0.5, DX, max_bins=max_bins)

    def test_lognormal_support_past_float_range_is_cut(self):
        d = WorkDistribution.from_lognormal(3e-3, 1e3, DX, max_bins=64)
        assert d.truncated and d.n_bins <= 64
        assert d.pmf.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_samples_rejects_non_finite_samples(self, bad):
        with pytest.raises(ConfigurationError, match="samples must be finite"):
            WorkDistribution.from_samples([bad, DX], DX)

    @pytest.mark.parametrize("bad", BAD_FLOATS)
    def test_from_samples_rejects_bad_dx(self, bad):
        with np.errstate(all="ignore"), pytest.raises(ConfigurationError):
            WorkDistribution.from_samples([DX], bad)

    def test_from_samples_lumps_samples_past_the_int_range(self):
        d = WorkDistribution.from_samples([DX, 1e300], DX, max_bins=8)
        assert d.truncated and d.n_bins == 8
        assert d.pmf[1] == d.pmf[-1] == 0.5

    @pytest.mark.parametrize("max_bins", [0, -1])
    def test_from_samples_rejects_bad_max_bins(self, max_bins):
        with pytest.raises(ConfigurationError, match="max_bins"):
            WorkDistribution.from_samples([DX], DX, max_bins=max_bins)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_mass_rejects_non_finite_work(self, bad):
        with pytest.raises(ConfigurationError, match="work"):
            WorkDistribution.point_mass(DX, bad)

    @pytest.mark.parametrize("work", [1e300, DEFAULT_MAX_BINS * DX])
    def test_point_mass_rejects_grids_past_the_bin_cap(self, work):
        # 1e300 / DX bins would overflow numpy's allocator; DEFAULT_MAX_BINS
        # * DX needs one bin more than the cap the other constructors honour.
        with pytest.raises(ConfigurationError, match=f"bins.*cap of {DEFAULT_MAX_BINS}"):
            WorkDistribution.point_mass(DX, work)

    def test_point_mass_accepts_exactly_the_bin_cap(self):
        d = WorkDistribution.point_mass(DX, (DEFAULT_MAX_BINS - 1) * DX)
        assert d.n_bins == DEFAULT_MAX_BINS and d.pmf[-1] == 1.0

    @pytest.mark.parametrize("bad", BAD_FLOATS)
    def test_point_mass_rejects_bad_dx(self, bad):
        with pytest.raises(ConfigurationError):
            WorkDistribution.point_mass(bad, DX)

    @pytest.mark.parametrize("dx", [math.nan, math.inf, -math.inf])
    def test_init_rejects_non_finite_dx(self, dx):
        with pytest.raises(ConfigurationError):
            WorkDistribution(dx, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_init_rejects_non_finite_pmf(self, bad):
        with pytest.raises(ConfigurationError):
            dist_from([0.5, bad, 0.5])

    def test_init_rejects_overflowing_total(self):
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError):
            dist_from([1e308, 1e308])


#: Lengths on either side of every ``next_fast_len`` jump up to 600.
FAST_LEN_EDGES = sorted(
    {f + d for f in {sp_fft.next_fast_len(n, True) for n in range(2, 600)} for d in (-1, 0, 1)}
)


class TestScipyEquivalence:
    """The production convolution and log-normal discretization equal
    scipy's own (``scipy.signal`` / ``scipy.stats``) bit for bit."""

    @given(
        st.one_of(st.integers(0, 3), st.sampled_from(FAST_LEN_EDGES)),
        st.one_of(st.integers(0, 3), st.sampled_from(FAST_LEN_EDGES)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example(0, 5, 0)
    @example(1, 1, 0)
    @example(1, 7, 0)
    @example(2, 2, 0)
    def test_fftconvolve_matches_scipy_signal(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random(n1), rng.random(n2)
        ours, theirs = fftconvolve(a, b), signal.fftconvolve(a, b)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()

    @given(st.integers(1, 200), st.integers(2, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(1, 2, 0)
    @example(2, 2, 0)
    def test_fftconvolve_matches_on_table_row_shapes(self, head_bins, ccdf_len, seed):
        """The VP table rows convolve a head PMF of ``m`` bins with a
        padded CCDF extended by ``m - 1`` leading ones (just the CCDF
        past its leading 1.0 when ``m == 1``)."""
        rng = np.random.default_rng(seed)
        h = rng.random(head_bins)
        h /= h.sum()
        ccdf = np.concatenate([[1.0], np.sort(rng.random(ccdf_len - 2))[::-1], [0.0]])
        extended = (
            np.concatenate([np.ones(head_bins - 1), ccdf[1:]]) if head_bins > 1 else ccdf[1:]
        )
        ours, theirs = fftconvolve(h, extended), signal.fftconvolve(h, extended)
        assert ours.tobytes() == theirs.tobytes()

    @given(
        st.floats(1e-4, 5e-2),
        st.floats(0.05, 2.0),
        st.floats(5e-6, 5e-4),
        st.sampled_from([1 - 1e-6, 0.999, 0.5, 1e-3]),
        st.sampled_from([1, 2, 64, 4096]),
    )
    @settings(max_examples=200, deadline=None)
    @example(3e-3, 0.5, 2e-5, 1 - 1e-6, 16384)
    def test_from_lognormal_matches_scipy_stats(self, median, sigma, dx, q, max_bins):
        ours = WorkDistribution.from_lognormal(median, sigma, dx, max_bins=max_bins, tail_quantile=q)
        ref = reference_lognormal(median, sigma, dx, max_bins=max_bins, tail_quantile=q)
        assert ours.truncated == ref.truncated
        assert ours.pmf.tobytes() == ref.pmf.tobytes()


class TestCcdf:
    def test_negative_threshold_is_one(self):
        assert dist_from([1.0]).ccdf(-1.0) == 1.0

    def test_beyond_support_is_zero(self):
        d = dist_from([0.5, 0.5])
        assert d.ccdf(10 * DX) == 0.0

    def test_known_values(self):
        d = dist_from([0.25, 0.25, 0.5])  # mass at 0, dx, 2dx
        assert d.ccdf(0.0) == pytest.approx(0.75)
        assert d.ccdf(DX) == pytest.approx(0.5)
        assert d.ccdf(2 * DX) == pytest.approx(0.0)

    def test_ccdf_many_matches_scalar(self):
        d = dist_from([0.1, 0.2, 0.3, 0.4])
        ts = np.array([-1.0, 0.0, 0.5 * DX, DX, 2 * DX, 3 * DX, 99.0])
        many = d.ccdf_many(ts)
        for t, v in zip(ts, many):
            assert v == pytest.approx(d.ccdf(float(t)))

    @given(pmfs())
    @settings(max_examples=50)
    def test_ccdf_monotone_nonincreasing(self, pmf):
        d = dist_from(pmf)
        ts = np.arange(-1, d.n_bins + 2) * DX
        vals = d.ccdf_many(ts)
        assert np.all(np.diff(vals) <= 1e-12)


class TestQuantileAndMoments:
    def test_quantile_bounds(self):
        d = dist_from([0.5, 0.3, 0.2])
        assert d.quantile(0.5) == pytest.approx(0.0)
        assert d.quantile(0.81) == pytest.approx(2 * DX)
        assert d.quantile(1.0) == pytest.approx(2 * DX)

    def test_invalid_quantile(self):
        with pytest.raises(ConfigurationError):
            dist_from([1.0]).quantile(0.0)

    def test_mean_variance(self):
        d = dist_from([0.5, 0.0, 0.5])  # mass at 0 and 2dx
        assert d.mean() == pytest.approx(DX)
        assert d.variance() == pytest.approx(DX**2)


class TestConvolve:
    def test_point_masses_add(self):
        a = WorkDistribution.point_mass(DX, 2 * DX)
        b = WorkDistribution.point_mass(DX, 3 * DX)
        c = a.convolve(b)
        assert c.mean() == pytest.approx(5 * DX)
        assert c.ccdf(4.5 * DX) == pytest.approx(1.0)

    def test_mean_additivity(self):
        a = dist_from([0.2, 0.5, 0.3])
        b = dist_from([0.7, 0.3])
        assert a.convolve(b).mean() == pytest.approx(a.mean() + b.mean())

    def test_variance_additivity(self):
        a = dist_from([0.2, 0.5, 0.3])
        b = dist_from([0.7, 0.3])
        assert a.convolve(b).variance() == pytest.approx(a.variance() + b.variance())

    def test_matches_direct_convolution(self):
        a = dist_from([0.25, 0.75])
        b = dist_from([0.5, 0.25, 0.25])
        c = a.convolve(b)
        assert c.pmf == pytest.approx(np.convolve(a.pmf, b.pmf))

    def test_grid_mismatch_rejected(self):
        a = WorkDistribution(1e-4, [1.0, 1.0])
        b = WorkDistribution(2e-4, [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            a.convolve(b)

    def test_truncation_preserves_ccdf_below_cap(self):
        a = dist_from(np.ones(100))
        c = a.convolve(a, max_bins=120)
        full = a.convolve(a, max_bins=10_000)
        assert c.truncated
        for t in np.arange(0, 100) * DX:
            assert c.ccdf(float(t)) == pytest.approx(full.ccdf(float(t)), abs=1e-12)

    @given(pmfs(), pmfs())
    @settings(max_examples=30)
    def test_convolution_commutes(self, p1, p2):
        a, b = dist_from(p1), dist_from(p2)
        ab, ba = a.convolve(b), b.convolve(a)
        assert ab.pmf == pytest.approx(ba.pmf, abs=1e-12)

    @given(pmfs())
    @settings(max_examples=30)
    def test_sum_stochastically_dominates_parts(self, pmf):
        """W1 + W2 >= W1 pointwise => CCDF of the sum dominates."""
        d = dist_from(pmf)
        s = d.convolve(d)
        ts = np.arange(d.n_bins + 2) * DX
        assert np.all(s.ccdf_many(ts) >= d.ccdf_many(ts) - 1e-12)


class TestConditionalRemaining:
    def test_zero_completed_is_identity(self):
        d = dist_from([0.25, 0.25, 0.5])
        assert d.conditional_remaining(0.0) is d

    def test_shift_and_renormalize(self):
        d = dist_from([0.5, 0.25, 0.25])  # mass at 0, dx, 2dx
        r = d.conditional_remaining(DX)
        # Given W >= dx: remaining is 0 w.p. 0.5, dx w.p. 0.5.
        assert r.pmf == pytest.approx([0.5, 0.5])

    def test_exhausted_support_point_mass(self):
        d = dist_from([0.5, 0.5])
        r = d.conditional_remaining(10 * DX)
        assert r.mean() == pytest.approx(0.0)

    def test_cache_returns_same_object(self):
        d = dist_from([0.25, 0.25, 0.5])
        assert d.conditional_remaining(DX) is d.conditional_remaining(DX)

    def test_negative_completed_rejected(self):
        with pytest.raises(ConfigurationError):
            dist_from([1.0]).conditional_remaining(-1.0)

    @given(pmfs(), st.integers(0, 10))
    @settings(max_examples=40)
    def test_remaining_support_shrinks_by_completed(self, pmf, k):
        """Remaining work is supported on [0, max - completed].  (The
        remaining *mean* can exceed the original mean — residual-life
        inflation under heavy tails — so only the support contracts.)"""
        d = dist_from(pmf)
        r = d.conditional_remaining(k * DX)
        assert r.max_value <= max(0.0, d.max_value - k * DX) + 1e-12

    @given(pmfs(), st.integers(0, 10))
    @settings(max_examples=40)
    def test_remaining_is_normalized(self, pmf, k):
        d = dist_from(pmf)
        r = d.conditional_remaining(k * DX)
        assert r.pmf.sum() == pytest.approx(1.0)


class TestSampling:
    def test_sample_distribution_converges(self, rng):
        d = dist_from([0.25, 0.25, 0.5])
        s = d.sample(100_000, rng)
        assert s.mean() == pytest.approx(d.mean(), rel=0.02)

    def test_samples_on_grid(self, rng):
        d = dist_from([0.5, 0.5])
        s = d.sample(100, rng)
        assert set(np.round(s / DX)) <= {0.0, 1.0}


class TestConvolutionCache:
    def test_power_zero_is_point_mass_at_zero(self):
        cache = ConvolutionCache(dist_from([0.5, 0.5]))
        assert cache.power(0).mean() == pytest.approx(0.0)

    def test_power_one_is_base(self):
        base = dist_from([0.5, 0.5])
        assert ConvolutionCache(base).power(1) is base

    def test_power_k_mean_scales(self):
        base = dist_from([0.2, 0.5, 0.3])
        cache = ConvolutionCache(base)
        for k in (2, 3, 5):
            assert cache.power(k).mean() == pytest.approx(k * base.mean(), rel=1e-9)

    def test_equivalent_matches_explicit_convolution(self):
        base = dist_from([0.2, 0.5, 0.3])
        head = dist_from([0.9, 0.1])
        cache = ConvolutionCache(base)
        eq = cache.equivalent(head, 2)
        explicit = head.convolve(base).convolve(base)
        assert eq.pmf == pytest.approx(explicit.pmf, abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvolutionCache(dist_from([1.0])).power(-1)


class TestGridOffset:
    def test_rounds_to_nearest_bin(self):
        d = dist_from([0.5, 0.5])
        assert d.grid_offset(0.0) == 0
        assert d.grid_offset(0.49 * DX) == 0
        assert d.grid_offset(0.51 * DX) == 1
        assert d.grid_offset(3.0 * DX) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            dist_from([1.0]).grid_offset(-DX)

    def test_near_edge_floats_share_a_key(self):
        """The quantization exists so observed completed works a ULP
        apart condition on the same cached head distribution."""
        d = dist_from([0.25, 0.25, 0.5])
        w = 2.0 * DX
        assert d.conditional_remaining(np.nextafter(w, 0.0)) is d.conditional_remaining(
            np.nextafter(w, 1.0)
        )


class TestCacheBounds:
    def test_conditional_cache_is_bounded(self):
        from repro.server.distributions import DEFAULT_MAX_COND_ENTRIES

        d = dist_from(np.ones(2 * DEFAULT_MAX_COND_ENTRIES))
        for k in range(1, 2 * DEFAULT_MAX_COND_ENTRIES):
            d.conditional_remaining_at(k)
        assert len(d._cond_cache) <= DEFAULT_MAX_COND_ENTRIES

    def test_power_cache_bounded_with_lru_eviction(self):
        base = dist_from([0.2, 0.5, 0.3])
        cache = ConvolutionCache(base, max_entries=4)
        for k in range(2, 12):
            cache.power(k)
        assert len(cache) <= 4
        assert 11 in cache._powers  # the most recent power survives
        assert 2 not in cache._powers

    def test_evicted_power_rebuilds_bitwise_identical(self):
        base = dist_from([0.2, 0.5, 0.3])
        unbounded = ConvolutionCache(base)
        want = unbounded.power(6).pmf.copy()
        small = ConvolutionCache(base, max_entries=2)
        small.power(6)
        for k in range(7, 12):
            small.power(k)  # push k=6 out
        assert 6 not in small._powers
        got = small.power(6).pmf
        assert np.array_equal(got, want)

    def test_pinned_powers_never_evicted(self):
        base = dist_from([0.5, 0.5])
        cache = ConvolutionCache(base, max_entries=1)
        for k in range(2, 8):
            cache.power(k)
        assert cache.power(0).mean() == pytest.approx(0.0)
        assert cache.power(1) is base

    def test_zero_max_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvolutionCache(dist_from([1.0]), max_entries=0)
