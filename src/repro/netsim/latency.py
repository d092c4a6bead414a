"""Utilization→latency link model with the Fig-1 "knee".

The paper's Figure 1 measures average search-query latency against link
utilization: flat (~139 µs) at low utilization, then an abrupt knee
beyond which latency explodes to ~12 ms as queues build.  This module
provides a parametric per-link delay model calibrated to that curve.

Model
-----
Per directed link at utilization ``rho``::

    delay = propagation + transmission + wait
    E[wait] = burst_factor * s * rho**knee_exponent / (1 - rho)

where ``s`` is the packet transmission time.  The ``rho**a / (1-rho)``
shape is an empirical sharpening of the M/G/1 wait: data-center
background traffic is bursty, so links behave well below the knee
(short busy periods) and then transition quickly into sustained
congestion.  ``knee_exponent`` controls where the knee sits;
``burst_factor`` controls the saturation level.

Sampling uses a two-phase hyperexponential: with probability
``rho**knee_exponent`` the packet lands in a *congestion episode* and
waits Exp(burst_factor * s / (1-rho)); otherwise it sees a lightly
loaded M/M/1 and waits Exp(s * rho / (1-rho)) (with an atom at zero).
The mixture mean matches the analytic curve while producing the
heavy 99th-percentile tails of the paper's Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng
from ..units import GBPS

__all__ = [
    "LinkLatencyModel",
    "path_delay_mean",
    "sample_path_delays",
    "sample_pooled_path_delays",
]

#: Row-chunk budget (elements) for grouped sampling.  Part of the
#: sampling contract: the chunk boundary decides the order RNG draws are
#: consumed in, so it must be a fixed constant, not adaptive to memory.
_POOLED_CHUNK_ELEMS = 2_000_000


@dataclass(frozen=True)
class LinkLatencyModel:
    """Parametric per-link delay model (see module docstring).

    Defaults are calibrated for the paper's platform: 1 Gbps links,
    1500-byte packets, a query path of ~6 hops giving ~139 µs at low
    utilization and ~12 ms past the knee.
    """

    capacity_bps: float = GBPS
    packet_bits: float = 12000.0  # 1500-byte MTU frames
    propagation_s: float = 5e-6
    burst_factor: float = 27.5
    knee_exponent: float = 4.0
    rho_cap: float = 0.98

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.packet_bits <= 0:
            raise ConfigurationError("packet size must be positive")
        if self.propagation_s < 0:
            raise ConfigurationError("propagation delay must be non-negative")
        if self.burst_factor < 1.0:
            raise ConfigurationError("burst factor must be >= 1")
        if self.knee_exponent < 1.0:
            raise ConfigurationError("knee exponent must be >= 1")
        if not 0.0 < self.rho_cap < 1.0:
            raise ConfigurationError("rho_cap must lie in (0, 1)")

    @property
    def transmission_s(self) -> float:
        """Serialization time of one packet."""
        return self.packet_bits / self.capacity_bps

    def _clip_rho(self, utilization) -> np.ndarray:
        rho = np.asarray(utilization, dtype=float)
        if np.any(rho < 0):
            raise ConfigurationError("utilization must be non-negative")
        return np.minimum(rho, self.rho_cap)

    def mean_wait(self, utilization) -> np.ndarray:
        """Expected queueing wait (s) at the given utilization(s).

        The exact mean of the two-phase sampling model: the congestion
        phase (probability ``rho**a``) contributes the knee, the light
        M/M/1-like phase contributes the small pre-knee wait.
        Vectorized; utilizations above ``rho_cap`` are clipped (a link
        driven past capacity is buffer-limited, not unbounded).
        """
        rho = self._clip_rho(utilization)
        s = self.transmission_s
        p_congested = rho**self.knee_exponent
        congested = self.burst_factor * s / (1.0 - rho)
        light = rho * s / (1.0 - rho)
        return p_congested * congested + (1.0 - p_congested) * light

    def mean_delay(self, utilization) -> np.ndarray:
        """Expected one-hop delay (s): propagation + transmission + wait."""
        return self.propagation_s + self.transmission_s + self.mean_wait(utilization)

    def sample_waits(self, utilization, n: int, seed_or_rng=None) -> np.ndarray:
        """Draw ``n`` queueing-wait samples at scalar ``utilization``."""
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        rng = ensure_rng(seed_or_rng)
        rho = float(self._clip_rho(utilization))
        s = self.transmission_s
        if rho == 0.0:
            return np.zeros(n)
        p_congested = rho**self.knee_exponent
        congested = rng.random(n) < p_congested
        waits = np.zeros(n)
        n_c = int(congested.sum())
        if n_c:
            waits[congested] = rng.exponential(self.burst_factor * s / (1.0 - rho), size=n_c)
        # Light phase: M/M/1-like wait with an atom at zero.
        light = ~congested
        n_l = int(light.sum())
        if n_l:
            queued = rng.random(n_l) < rho
            light_waits = np.zeros(n_l)
            n_q = int(queued.sum())
            if n_q:
                light_waits[queued] = rng.exponential(s / (1.0 - rho), size=n_q)
            waits[light] = light_waits
        return waits

    def sample_delays(self, utilization, n: int, seed_or_rng=None) -> np.ndarray:
        """Draw ``n`` one-hop delay samples at scalar ``utilization``."""
        base = self.propagation_s + self.transmission_s
        return base + self.sample_waits(utilization, n, seed_or_rng)


def path_delay_mean(model: LinkLatencyModel, link_utilizations) -> float:
    """Expected end-to-end delay (s) of a path given per-link
    utilizations (hosts' NIC hops included as links)."""
    utils = np.asarray(link_utilizations, dtype=float)
    if utils.size == 0:
        raise ConfigurationError("a path must traverse at least one link")
    return float(np.sum(model.mean_delay(utils)))


def sample_path_delays(
    model: LinkLatencyModel, link_utilizations, n: int, seed_or_rng=None
) -> np.ndarray:
    """Draw ``n`` end-to-end delay samples for a path.

    Per-link waits are drawn independently — adequate for the flow-level
    model since the congestion episodes of distinct switches are driven
    by different cross-traffic.
    """
    rng = ensure_rng(seed_or_rng)
    utils = np.asarray(link_utilizations, dtype=float)
    if utils.size == 0:
        raise ConfigurationError("a path must traverse at least one link")
    total = np.zeros(n)
    for u in utils:
        total += model.sample_delays(float(u), n, rng)
    return total


def sample_pooled_path_delays(
    model: LinkLatencyModel,
    link_utilizations,
    flow_of_hop,
    n_flows: int,
    n: int,
    seed_or_rng=None,
) -> np.ndarray:
    """Draw ``n`` end-to-end delay samples for many paths at once.

    ``link_utilizations`` concatenates every flow's per-hop utilizations
    and ``flow_of_hop`` maps each hop to its owning flow row; the result
    has shape ``(n_flows, n)``.  This is the canonical sampling scheme
    behind :meth:`NetworkModel.query_latency_summary`: hops are grouped
    by unique (clipped) utilization in ascending order and each group's
    waits are drawn with the same two-phase scheme as
    :meth:`LinkLatencyModel.sample_waits` — congested-mask uniforms for
    the whole group, then the congested exponentials, then the
    light-phase uniforms and exponentials — one batched draw per group
    instead of one per hop.  Groups are processed in fixed row chunks of
    ``_POOLED_CHUNK_ELEMS`` elements; the chunk size is part of the
    deterministic stream contract.

    Note the RNG stream differs from calling
    :func:`sample_path_delays` per flow (draws are grouped across
    flows); :class:`NetworkModel` and its string-keyed test oracle both
    use *this* helper for pooled summaries, so their outputs are
    bit-identical.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    rng = ensure_rng(seed_or_rng)
    rho = model._clip_rho(link_utilizations)
    flow_of_hop = np.asarray(flow_of_hop, dtype=np.intp)
    if rho.shape != flow_of_hop.shape:
        raise ConfigurationError("link_utilizations and flow_of_hop must align")
    if rho.size == 0:
        raise ConfigurationError("a path must traverse at least one link")

    s = model.transmission_s
    hops_per_flow = np.bincount(flow_of_hop, minlength=n_flows).astype(float)
    totals = np.empty((n_flows, n), dtype=float)
    totals[:] = (hops_per_flow * (model.propagation_s + s))[:, None]
    if n == 0:
        return totals

    uniq, inverse = np.unique(rho, return_inverse=True)
    chunk_rows = max(1, _POOLED_CHUNK_ELEMS // max(1, n))
    for g, rho_g in enumerate(uniq):
        if rho_g == 0.0:
            continue
        hops = np.flatnonzero(inverse == g)
        p_congested = rho_g**model.knee_exponent
        congested_scale = model.burst_factor * s / (1.0 - rho_g)
        light_scale = s / (1.0 - rho_g)
        for lo in range(0, hops.size, chunk_rows):
            rows = hops[lo : lo + chunk_rows]
            m = rows.size
            congested = rng.random((m, n)) < p_congested
            waits = np.zeros((m, n))
            n_c = int(congested.sum())
            if n_c:
                waits[congested] = rng.exponential(congested_scale, size=n_c)
            light = ~congested
            n_l = int(light.sum())
            if n_l:
                queued = rng.random(n_l) < rho_g
                light_waits = np.zeros(n_l)
                n_q = int(queued.sum())
                if n_q:
                    light_waits[queued] = rng.exponential(light_scale, size=n_q)
                waits[light] = light_waits
            _scatter_add_rows(totals, flow_of_hop[rows], waits)
    return totals


def _scatter_add_rows(totals: np.ndarray, idx: np.ndarray, waits: np.ndarray) -> None:
    """``totals[idx[i]] += waits[i]`` for every row i, accumulating
    duplicates of ``idx`` in row order (``np.add.at`` semantics, but
    with vectorized adds: duplicates are split by occurrence rank, so
    each pass has unique destinations while every destination still
    receives its additions in the original row order — bit-identical to
    the naive sequential loop)."""
    if len(idx) == len(np.unique(idx)):
        totals[idx] += waits
        return
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    run_start = np.empty(len(idx), dtype=bool)
    run_start[0] = True
    run_start[1:] = sorted_idx[1:] != sorted_idx[:-1]
    # Occurrence rank of each row among rows sharing its destination.
    rank = np.empty(len(idx), dtype=np.intp)
    rank[order] = np.arange(len(idx)) - np.maximum.accumulate(
        np.where(run_start, np.arange(len(idx)), 0)
    )
    for r in range(int(rank.max()) + 1):
        sel = rank == r
        totals[idx[sel]] += waits[sel]
