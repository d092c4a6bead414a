"""Reference log-normal discretization through ``scipy.stats.lognorm``.

Production :meth:`~repro.server.distributions.WorkDistribution.from_lognormal`
evaluates the log-normal quantile and CDF with ``scipy.special``'s
``ndtri``/``ndtr`` directly, so importing the server package does not
pull in ``scipy.stats``.  The function here is the discretization it
replaced, kept only as the executable specification
(``tests/test_distributions.py`` asserts the two PMFs are equal bit for
bit).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import lognorm

from repro.server.distributions import DEFAULT_MAX_BINS, WorkDistribution

__all__ = ["reference_lognormal"]


def reference_lognormal(
    median: float,
    sigma: float,
    dx: float,
    max_bins: int = DEFAULT_MAX_BINS,
    tail_quantile: float = 1.0 - 1e-6,
) -> WorkDistribution:
    """Discretize a log-normal(ln(median), sigma) via the frozen
    ``scipy.stats`` distribution, lumping the cut tail into the last bin."""
    dist = lognorm(s=sigma, scale=median)
    hi = float(dist.ppf(tail_quantile))
    n = min(int(np.ceil(hi / dx)) + 1, max_bins)
    edges = (np.arange(n + 1) - 0.5) * dx
    edges[0] = 0.0
    cdf = dist.cdf(edges)
    pmf = np.diff(cdf)
    pmf[-1] += 1.0 - cdf[-1]  # lump the analytic tail
    return WorkDistribution(dx, pmf, truncated=True)
