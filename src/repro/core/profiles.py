"""Interpolated power/latency profiles for the diurnal evaluation.

Running the full DES for every minute of a 24-hour trace is wasteful:
server power at a given (governor, consolidation, utilization) is a
smooth function of utilization.  The paper does the equivalent — its
Fig. 13/15 numbers are "scaled based on the result of our MiniNet
experiments".  A :class:`PowerProfile` runs the DES on a utilization
grid once and interpolates per-core power and tail latency in between;
a :class:`ProfileTable` caches profiles per (governor, aggregation
level, background-traffic bucket).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..consolidation.base import ConsolidationResult
from ..errors import ConfigurationError
from ..workloads.search import SearchWorkload
from .joint import JointSimParams, evaluate_operating_points

__all__ = ["PowerProfile", "ProfileTable", "DEFAULT_UTIL_GRID"]

#: Default utilization grid: spans the trace's realistic range.
DEFAULT_UTIL_GRID = (0.05, 0.15, 0.3, 0.45, 0.6)


def _check_grid(utilizations) -> None:
    if len(utilizations) < 2:
        raise ConfigurationError("profile needs at least two grid points")
    if np.any(np.diff(utilizations) <= 0):
        raise ConfigurationError("utilization grid must be strictly increasing")


@dataclass(frozen=True)
class PowerProfile:
    """Per-core CPU power and p95 latency vs utilization (one scheme,
    one consolidation)."""

    utilizations: np.ndarray
    per_core_watts: np.ndarray
    p95_latency_s: np.ndarray
    latency_constraint_s: float
    governor: str

    def __post_init__(self) -> None:
        _check_grid(self.utilizations)

    def per_core_power(self, utilization: float) -> float:
        """Interpolated per-core CPU power (W); clamped at grid edges."""
        return float(np.interp(utilization, self.utilizations, self.per_core_watts))

    def p95(self, utilization: float) -> float:
        """Interpolated p95 end-to-end latency (s)."""
        return float(np.interp(utilization, self.utilizations, self.p95_latency_s))

    def sla_met(self, utilization: float) -> bool:
        """Whether the interpolated tail meets the constraint."""
        return self.p95(utilization) <= self.latency_constraint_s * (1 + 1e-9)

    @classmethod
    def build(
        cls,
        workload: SearchWorkload,
        traffic,
        consolidation: ConsolidationResult,
        governor_factory,
        util_grid=DEFAULT_UTIL_GRID,
        params: JointSimParams | None = None,
    ) -> "PowerProfile":
        """Run the DES at each grid utilization and tabulate.

        The grid is checked before any DES runs, then evaluated through
        one :func:`~repro.core.joint.evaluate_operating_points` call —
        the network model, latency monitor and pooled sampler are built
        once per profile, and each grid point runs its own server DES
        (bit-identical to
        :func:`~repro.core.joint.evaluate_operating_point`).
        """
        utilizations = np.asarray(util_grid, dtype=float)
        _check_grid(utilizations)
        params = params or JointSimParams()
        powers, tails = [], []
        governor = "governor"
        evals = evaluate_operating_points(
            workload,
            traffic,
            consolidation,
            [(workload.latency_constraint_s, u, governor_factory, None) for u in util_grid],
            params=params,
        )
        for ev in evals:
            powers.append(ev.server_result.cpu_power_watts / params.sim_cores)
            tails.append(ev.query_p95_s)
            governor = ev.governor
        return cls(
            utilizations=utilizations,
            per_core_watts=np.asarray(powers),
            p95_latency_s=np.asarray(tails),
            latency_constraint_s=workload.latency_constraint_s,
            governor=governor,
        )


class ProfileTable:
    """Lazy cache of :class:`PowerProfile` objects keyed by scheme and
    network condition bucket."""

    def __init__(self):
        self._profiles: dict[tuple, PowerProfile] = {}

    def get(self, key: tuple) -> PowerProfile | None:
        return self._profiles.get(key)

    def put(self, key: tuple, profile: PowerProfile) -> None:
        self._profiles[key] = profile

    def get_or_build(self, key: tuple, builder) -> PowerProfile:
        """Fetch the cached profile or build it with ``builder()``."""
        profile = self._profiles.get(key)
        if profile is None:
            profile = builder()
            self._profiles[key] = profile
        return profile

    def __len__(self) -> int:
        return len(self._profiles)
