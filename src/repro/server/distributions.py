"""Discretized work distributions and FFT convolution.

EPRONS-Server's performance model is "a performance model based on the
request's probability density function" (Section III-A): the service
demand of a request is a random variable whose distribution is measured
offline.  The *equivalent request* of the n-th queued request is the
convolution of the remaining work of the in-service request with the
work of everything ahead of it (Section III-B), and the violation
probability is the CCDF of that equivalent distribution evaluated at
the work budget ω(D).

:class:`WorkDistribution` implements that algebra on a uniform grid of
*reference work* (seconds of service at the maximum frequency — see
:mod:`repro.server.freqmodel`):

* FFT convolution (the paper measures ~20 µs per convolution with FFT;
  Section III-C) through :func:`fftconvolve`, which replays the call
  sequence of :func:`scipy.signal.fftconvolve` on :mod:`scipy.fft`
  without importing :mod:`scipy.signal` (and, through it,
  :mod:`scipy.stats`);
* exact CCDF lookup below the truncation horizon — overflow mass from
  truncation is lumped into the last bin, so ``ccdf(x)`` stays exact
  for every ``x`` below the grid end;
* conditional remaining-work distributions for arrival instances.

:class:`ConvolutionCache` memoizes k-fold self-convolutions of the base
service distribution — the paper's "equivalent distributions can be
reused once computed" optimization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as _fft
from scipy import special as _special

from ..errors import ConfigurationError

__all__ = ["WorkDistribution", "ConvolutionCache", "fftconvolve"]

#: Hard cap on grid length after convolution; overflow mass is lumped
#: into the final bin (which preserves CCDF correctness below the cap).
DEFAULT_MAX_BINS = 16384

#: PMF entries below this are treated as zero when trimming.
_TRIM_EPS = 1e-15

#: Bound on memoized conditional-remaining distributions per base
#: distribution.  Long-running simulations touch many completed-work
#: offsets; beyond the cap the oldest entries are evicted (recomputing
#: an evicted entry reproduces it exactly, so eviction never changes
#: results).
DEFAULT_MAX_COND_ENTRIES = 512

#: Bound on memoized k-fold self-convolutions per cache.  Power
#: distributions form a chain (S_k = S_{k-1} ⊗ base); evicted powers
#: are rebuilt by convolving up from the highest retained lower power,
#: which replays the exact original float chain.
DEFAULT_MAX_POWER_ENTRIES = 128


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D float arrays by FFT.

    Bit-identical to ``scipy.signal.fftconvolve(a, b)``: the same
    ``rfftn``/``irfftn`` calls at the same ``next_fast_len`` padding.
    ``scipy.fft`` and ``scipy.special`` are imported eagerly at module
    top, so no import cost lands in a sweep's measured phase.
    """
    if a.size == 0 or b.size == 0:
        return np.asarray([])
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    f = _fft.next_fast_len(n, True)
    spectrum = _fft.rfftn(a, [f], axes=[0]) * _fft.rfftn(b, [f], axes=[0])
    return _fft.irfftn(spectrum, [f], axes=[0])[:n].copy()


def _check_grid_spacing(dx: float) -> None:
    if not (dx > 0 and math.isfinite(dx)):
        raise ConfigurationError(f"grid spacing must be positive and finite, got {dx}")


class WorkDistribution:
    """A probability mass function over reference work on a uniform grid.

    Mass ``pmf[i]`` sits at work value ``i * dx``.  The PMF is
    normalized at construction; a ``truncated`` flag records whether
    mass beyond the grid end was lumped into the last bin.
    """

    __slots__ = ("dx", "pmf", "_cdf", "_ccdf_table", "truncated", "_cond_cache")

    def __init__(self, dx: float, pmf, truncated: bool = False, _normalize: bool = True):
        _check_grid_spacing(dx)
        arr = np.asarray(pmf, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("pmf must be a non-empty 1-D array")
        if np.any(arr < -1e-12):
            raise ConfigurationError("pmf has negative mass")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        # A NaN or +inf entry makes the total non-finite (-inf was
        # already caught as negative mass).
        if not math.isfinite(total):
            raise ConfigurationError("pmf must be finite with finite total mass")
        if total <= 0:
            raise ConfigurationError("pmf has zero total mass")
        if _normalize:
            arr = arr / total
        # Trim trailing near-zero mass to keep convolutions compact.
        nz = np.nonzero(arr > _TRIM_EPS)[0]
        end = int(nz[-1]) + 1 if nz.size else 1
        arr = arr[:end]
        arr = arr / arr.sum()
        self.dx = float(dx)
        self.pmf = arr
        self._cdf = np.cumsum(arr)
        # Padded CCDF lookup: entry 0 covers negative thresholds (VP=1),
        # entry i+1 is P(W > i*dx).  The final entry is exactly 0.
        table = np.empty(arr.size + 1)
        table[0] = 1.0
        np.subtract(1.0, self._cdf, out=table[1:])
        table[-1] = 0.0
        self._ccdf_table = table
        self.truncated = truncated
        self._cond_cache: dict[int, "WorkDistribution"] = {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def point_mass(cls, dx: float, work: float = 0.0) -> "WorkDistribution":
        """A deterministic distribution concentrated at ``work``."""
        _check_grid_spacing(dx)
        if not (work >= 0 and math.isfinite(work)):
            raise ConfigurationError(f"work must be non-negative and finite, got {work}")
        ratio = work / dx
        # A ratio past the float range would make round() raise.
        n_bins = int(round(ratio)) + 1 if math.isfinite(ratio) else math.inf
        if n_bins > DEFAULT_MAX_BINS:
            raise ConfigurationError(
                f"a point mass at work {work} needs {n_bins:.6g} grid bins of {dx}, "
                f"past the cap of {DEFAULT_MAX_BINS}"
            )
        pmf = np.zeros(n_bins)
        pmf[-1] = 1.0
        return cls(dx, pmf)

    @classmethod
    def from_samples(cls, samples, dx: float, max_bins: int = DEFAULT_MAX_BINS) -> "WorkDistribution":
        """Histogram measured work samples onto the grid.

        This is how a deployment builds the model: log service times of
        real queries (the paper logs 100K Xapian queries) and bin them.
        """
        _check_grid_spacing(dx)
        if max_bins < 1:
            raise ConfigurationError(f"max_bins must be at least 1, got {max_bins}")
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ConfigurationError("cannot build a distribution from zero samples")
        if not np.isfinite(arr).all():
            raise ConfigurationError("work samples must be finite")
        if np.any(arr < 0):
            raise ConfigurationError("work samples must be non-negative")
        # Bins are clipped while still floats: a sample past the int64
        # range must land in the last bin, not wrap.
        with np.errstate(over="ignore"):
            bins = np.rint(arr / dx)
        truncated = bool(np.any(bins >= max_bins))
        idx = np.minimum(bins, max_bins - 1).astype(np.int64)
        pmf = np.bincount(idx, minlength=int(idx.max()) + 1).astype(float)
        return cls(dx, pmf, truncated=truncated)

    @classmethod
    def from_lognormal(
        cls,
        median: float,
        sigma: float,
        dx: float,
        max_bins: int = DEFAULT_MAX_BINS,
        tail_quantile: float = 1.0 - 1e-6,
    ) -> "WorkDistribution":
        """Discretize a log-normal(ln(median), sigma) analytically.

        The support is cut at ``tail_quantile``; the residual tail mass
        is lumped into the last bin (so CCDF queries below the cut stay
        exact up to the discretization).  The quantile and CDF are
        ``scipy.stats.lognorm``'s own formulas on :mod:`scipy.special`,
        so the PMF is bit-identical to discretizing through that class.
        """
        for name, value in (("median", median), ("sigma", sigma), ("dx", dx)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < tail_quantile < 1.0:
            raise ConfigurationError(f"tail_quantile must lie in (0, 1), got {tail_quantile}")
        if max_bins < 1:
            raise ConfigurationError(f"max_bins must be at least 1, got {max_bins}")
        # A support past the float range is cut at max_bins like any other.
        with np.errstate(over="ignore"):
            hi = float(np.exp(sigma * _special.ndtri(tail_quantile)) * median)
        n = int(min(np.ceil(hi / dx) + 1.0, max_bins))
        edges = (np.arange(n + 1) - 0.5) * dx
        edges[0] = 0.0
        cdf = np.empty(n + 1)
        cdf[0] = 0.0
        cdf[1:] = _special.ndtr(np.log(edges[1:] / median) / sigma)
        pmf = np.diff(cdf)
        pmf[-1] += 1.0 - cdf[-1]  # lump the analytic tail
        return cls(dx, pmf, truncated=True)

    # -- basic statistics ----------------------------------------------------------

    @property
    def n_bins(self) -> int:
        return len(self.pmf)

    @property
    def values(self) -> np.ndarray:
        """Grid values ``i * dx`` (copy)."""
        return np.arange(self.n_bins) * self.dx

    @property
    def max_value(self) -> float:
        return (self.n_bins - 1) * self.dx

    def mean(self) -> float:
        return float(np.dot(np.arange(self.n_bins), self.pmf) * self.dx)

    def variance(self) -> float:
        v = np.arange(self.n_bins) * self.dx
        m = self.mean()
        return float(np.dot((v - m) ** 2, self.pmf))

    def quantile(self, q: float) -> float:
        """Smallest grid value with CDF >= q."""
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile q={q} outside (0, 1]")
        i = int(np.searchsorted(self._cdf, q - 1e-15, side="left"))
        return min(i, self.n_bins - 1) * self.dx

    # -- the paper's operations ------------------------------------------------------

    def ccdf(self, threshold: float) -> float:
        """P(W > threshold) — the violation probability at work budget
        ``threshold`` (Section III-B).

        Exact on the grid for thresholds below the truncation horizon;
        0 beyond the grid (or the lumped tail mass if truncated).
        """
        if threshold < 0:
            return 1.0
        i = int(threshold / self.dx + 1e-9)
        if i >= self.n_bins:
            return 0.0
        return float(self._ccdf_table[i + 1])

    def ccdf_many(self, thresholds) -> np.ndarray:
        """Vectorized :meth:`ccdf`."""
        t = np.asarray(thresholds, dtype=float)
        idx = np.floor(t / self.dx + 1e-9).astype(np.int64)
        # Clip into the padded CCDF table: index -1 (negative threshold)
        # maps to 1.0; indices beyond the grid map to the final entry.
        np.clip(idx, -1, self._ccdf_table.size - 2, out=idx)
        return self._ccdf_table[idx + 1]

    def convolve(self, other: "WorkDistribution", max_bins: int = DEFAULT_MAX_BINS) -> "WorkDistribution":
        """Distribution of the sum of two independent work variables.

        FFT convolution; if the result exceeds ``max_bins`` the excess
        mass is lumped into the final bin and the result is flagged
        ``truncated``.
        """
        if not np.isclose(other.dx, self.dx, rtol=1e-12):
            raise ConfigurationError(
                f"cannot convolve distributions with different grids ({self.dx} vs {other.dx})"
            )
        pmf = fftconvolve(self.pmf, other.pmf)
        pmf = np.clip(pmf, 0.0, None)
        truncated = self.truncated or other.truncated
        if len(pmf) > max_bins:
            overflow = pmf[max_bins - 1 :].sum()
            pmf = pmf[:max_bins].copy()
            pmf[-1] = overflow
            truncated = True
        return WorkDistribution(self.dx, pmf, truncated=truncated)

    def grid_offset(self, work: float) -> int:
        """The grid bin nearest ``work`` (round-to-nearest, half up).

        This is the canonical quantization of observed completed work
        onto the distribution grid, shared by the reference mixture
        path and the tabulated VP engine so both condition on the same
        head distribution.  Rounding (rather than truncating) keeps
        near-identical floats on either side of a bin edge from mapping
        to different conditioning keys.
        """
        if work < 0:
            raise ConfigurationError("completed work must be non-negative")
        return int(work / self.dx + 0.5)

    def conditional_remaining(self, completed: float) -> "WorkDistribution":
        """Distribution of ``W - completed`` given ``W > completed``.

        Models the in-service request at an arrival instance
        (Section III-B): the scheduler knows how much work has already
        been retired.  If the observed progress exhausts the modeled
        support (an overdue outlier request), returns the most
        conservative in-support answer: the last bin's residual.
        """
        return self.conditional_remaining_at(self.grid_offset(completed))

    def conditional_remaining_at(self, k: int) -> "WorkDistribution":
        """:meth:`conditional_remaining` for an exact grid offset ``k``."""
        if k < 0:
            raise ConfigurationError("completed work must be non-negative")
        if k <= 0:
            return self
        cached = self._cond_cache.get(k)
        if cached is not None:
            return cached
        if k >= self.n_bins:
            result = WorkDistribution.point_mass(self.dx, self.dx if self.truncated else 0.0)
        else:
            tail = self.pmf[k:]
            if tail.sum() <= _TRIM_EPS:
                result = WorkDistribution.point_mass(self.dx, 0.0)
            else:
                result = WorkDistribution(self.dx, tail, truncated=self.truncated)
        # Memoized per grid offset: the same base distribution is
        # re-conditioned at every arrival instance (Section III-C's
        # reuse observation) and offsets repeat heavily across requests.
        # Bounded FIFO: recomputation is exact, so eviction is safe.
        if len(self._cond_cache) >= DEFAULT_MAX_COND_ENTRIES:
            self._cond_cache.pop(next(iter(self._cond_cache)))
        self._cond_cache[k] = result
        return result

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` work values from the distribution."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        idx = rng.choice(self.n_bins, size=n, p=self.pmf)
        return idx * self.dx


class ConvolutionCache:
    """Memoized k-fold self-convolutions of a base work distribution.

    ``cache[k]`` is the distribution of the total work of ``k``
    independent requests.  Computed lazily and incrementally — this is
    the reuse optimization of Section III-C.

    The cache is bounded: at most ``max_entries`` powers beyond the
    always-retained ``k = 0`` and ``k = 1`` are kept, with
    least-recently-used eviction.  An evicted power is rebuilt by
    convolving up from the highest retained lower power — the same
    ``S_k = S_{k-1} ⊗ base`` chain that built it originally, so the
    floats are reproduced exactly and eviction never changes results.
    """

    def __init__(
        self,
        base: WorkDistribution,
        max_bins: int = DEFAULT_MAX_BINS,
        max_entries: int = DEFAULT_MAX_POWER_ENTRIES,
    ):
        if max_entries < 1:
            raise ConfigurationError("max_entries must be positive")
        self.base = base
        self.max_bins = max_bins
        self.max_entries = max_entries
        self._zero = WorkDistribution.point_mass(base.dx, 0.0)
        # Insertion-ordered dict as an LRU over k >= 2 (0 and 1 are
        # pinned attributes and never evicted).
        self._powers: dict[int, WorkDistribution] = {}

    def __len__(self) -> int:
        """Number of cached powers beyond the pinned k = 0, 1."""
        return len(self._powers)

    def power(self, k: int) -> WorkDistribution:
        """The k-fold self-convolution (k >= 0)."""
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        if k == 0:
            return self._zero
        if k == 1:
            return self.base
        cached = self._powers.get(k)
        if cached is not None:
            # Refresh LRU position.
            del self._powers[k]
            self._powers[k] = cached
            return cached
        # Build up from the highest cached power below k (falling back
        # to the base), replaying the original convolution chain.
        start, current = 1, self.base
        for kk in self._powers:
            if start < kk < k:
                start, current = kk, self._powers[kk]
        for kk in range(start + 1, k + 1):
            current = current.convolve(self.base, max_bins=self.max_bins)
            if len(self._powers) >= self.max_entries:
                self._powers.pop(next(iter(self._powers)))
            self._powers[kk] = current
        return current

    def equivalent(self, head: WorkDistribution, k: int) -> WorkDistribution:
        """``head ⊗ base^k`` — the equivalent distribution of the k-th
        queued request behind an in-service remainder ``head``."""
        if k == 0:
            return head
        return head.convolve(self.power(k), max_bins=self.max_bins)
