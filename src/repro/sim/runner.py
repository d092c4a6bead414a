"""Server-simulation runner — the paper's Fig. 12 experiment harness.

Configures one multi-core server under an open-loop Poisson search
load, per-request network latencies (sampled from a network model or a
fixed sampler) and a chosen governor; the DES
(:func:`repro.simfast.run_multipoint_simulation`) reports power,
latency tails and violation rates.

Deadline wiring (Section IV-A / V-B2):

* request's **actual** deadline: ``arrival + (L − network_latency)``
  where ``L`` is the end-to-end tail-latency constraint;
* deadline shown to a **network-aware** governor: the actual deadline
  (it monitors per-request slack);
* deadline shown to a network-**oblivious** governor: ``arrival +
  server_budget`` — the fixed SLA split (e.g. 25 ms of a 30 ms
  constraint), regardless of what the network actually did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..server.service import ServiceModel
from ..stats import LatencySummary

__all__ = [
    "DISPATCH_POLICIES",
    "ServerSimConfig",
    "ServerSimResult",
    "run_server_simulation",
    "constant_latency_sampler",
]

#: Dispatch disciplines: ``"random"`` (uniform random core, splitting
#: the server's Poisson stream into independent per-core Poisson
#: streams, the per-core-queue model the paper's governors assume) or
#: ``"round-robin"`` (cyclic, thinning each core's stream into a more
#: regular Erlang process).
DISPATCH_POLICIES = ("random", "round-robin")


def constant_latency_sampler(latency_s: float):
    """A network-latency sampler that always returns ``latency_s``."""
    if not (math.isfinite(latency_s) and latency_s >= 0):
        raise ConfigurationError(f"latency must be finite and non-negative, got {latency_s}")

    def sample(n: int, rng) -> np.ndarray:
        if n < 0:
            raise ConfigurationError(f"sample count must be non-negative, got {n}")
        return np.full(n, latency_s, dtype=float)

    return sample


@dataclass(frozen=True)
class ServerSimConfig:
    """Parameters of one server-simulation run.

    ``utilization`` is per-core offered load at the maximum frequency;
    ``latency_constraint_s`` is the end-to-end SLA ``L``;
    ``server_budget_s`` is the fixed compute budget assumed by
    network-oblivious governors (defaults to ``L`` minus
    ``network_budget_s``).
    """

    utilization: float
    latency_constraint_s: float
    network_budget_s: float = 5e-3
    n_cores: int = 12
    duration_s: float = 30.0
    warmup_s: float = 2.0
    static_watts: float = 20.0
    seed: int = 0
    dispatch: str = "random"

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization < 1.0:
            raise ConfigurationError(f"utilization {self.utilization} outside (0, 1)")
        if not 0.0 < self.latency_constraint_s < math.inf:
            raise ConfigurationError(
                f"latency constraint must be positive and finite, got {self.latency_constraint_s}"
            )
        if not 0.0 <= self.network_budget_s < self.latency_constraint_s:
            raise ConfigurationError("network budget must lie in [0, L)")
        if not 0.0 <= self.warmup_s < self.duration_s < math.inf:
            raise ConfigurationError(
                f"need 0 <= warmup < duration, both finite; got warmup {self.warmup_s}, "
                f"duration {self.duration_s}"
            )
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be positive, got {self.n_cores}")
        if not 0.0 <= self.static_watts < math.inf:
            raise ConfigurationError(
                f"static_watts must be finite and >= 0, got {self.static_watts}"
            )
        if self.dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_POLICIES}, got {self.dispatch!r}"
            )

    @property
    def server_budget_s(self) -> float:
        return self.latency_constraint_s - self.network_budget_s


@dataclass(frozen=True)
class ServerSimResult:
    """Outcome of one run."""

    governor: str
    config: ServerSimConfig
    n_completed: int
    cpu_power_watts: float
    server_power_watts: float
    total_latency: LatencySummary
    sojourn: LatencySummary
    violation_rate: float
    mean_busy_frequency_hz: float
    mean_busy_fraction: float

    @property
    def meets_sla(self) -> bool:
        """True when the measured tail meets the constraint: the 95th
        percentile of end-to-end latency is within ``L`` (equivalently
        the violation rate is within 5 %)."""
        return self.total_latency.p95 <= self.config.latency_constraint_s * (1 + 1e-9)


def run_server_simulation(
    service_model: ServiceModel,
    governor_factory,
    config: ServerSimConfig,
    network_latency_sampler=None,
    governor_name: str | None = None,
    sleep_model=None,
    reply_latency_sampler=None,
) -> ServerSimResult:
    """Simulate one server under one governor and one load level.

    ``governor_factory()`` must return a fresh
    :class:`~repro.policies.base.Governor` per call (one per core).
    ``network_latency_sampler(n, rng)`` returns per-request network
    latencies; ``None`` means a constant latency equal to half the
    network budget (an uncongested network).  ``sleep_model`` attaches a
    :class:`~repro.power.sleep.SleepStateModel` to every core
    (PowerNap-family baselines and hybrids).

    With a ``reply_latency_sampler``, each request also carries a
    reply-path latency: the end-to-end SLA (and the request's actual
    deadline) then accounts for ``request + sojourn + reply``, while
    governors keep seeing only the request slack — the paper's
    conservative Section IV-C rule.

    This is the public one-point call: one
    :func:`~repro.simfast.multipoint.run_multipoint_simulation` run on
    a one-point list.
    """
    from ..simfast.multipoint import MultipointPoint, run_multipoint_simulation

    (result,) = run_multipoint_simulation(
        service_model,
        [MultipointPoint(config, governor_factory, governor_name)],
        network_latency_sampler=network_latency_sampler,
        sleep_model=sleep_model,
        reply_latency_sampler=reply_latency_sampler,
    )
    return result
