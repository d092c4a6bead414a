"""Server-simulation runner — the paper's Fig. 12 experiment harness.

Drives a :class:`~repro.sim.server.MultiCoreServer` with an open-loop
Poisson search load, per-request network latencies (sampled from a
network model or a fixed sampler), and a chosen governor; reports
power, latency tails and violation rates.

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
from ..rng import ensure_rng, spawn
from ..server.service import ServiceModel
from ..stats import LatencySummary
from .engine import EventLoop
from .request import Request
from .server import DISPATCH_POLICIES, MultiCoreServer

__all__ = ["ServerSimConfig", "ServerSimResult", "run_server_simulation", "constant_latency_sampler"]


def constant_latency_sampler(latency_s: float):
    """A network-latency sampler that always returns ``latency_s``."""
    if latency_s < 0:
        raise ConfigurationError("latency must be non-negative")

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
    stats_out: dict | None = None,
) -> ServerSimResult:
    """Simulate one server under one governor and one load level.

    ``governor_factory()`` must return a fresh
    :class:`~repro.policies.base.Governor` per call (one per core).
    ``network_latency_sampler(n, rng)`` returns per-request network
    latencies; ``None`` means a constant latency equal to half the
    network budget (an uncongested network).  ``sleep_model`` attaches a
    :class:`~repro.power.sleep.SleepStateModel` to every core
    (PowerNap-family baselines and hybrids).

    This is the scalar event loop.  Production reaches it only through
    :func:`repro.simfast.multipoint.run_multipoint_simulation`, which
    prices every point it can represent on its one-point per-core loop
    (bit-identical, TimeTrader included) and falls back here for the
    clairvoyant oracle, sleep models and JSQ dispatch.  VP governors
    decide from queue snapshots on their tabulated :mod:`repro.simfast`
    engine.  The oracle tests drive this loop directly, and its timer
    path is the oracle for the lockstep TimeTrader path.

    ``stats_out``, when given a dict, receives run instrumentation
    (``n_events`` processed by the event loop, ``n_decisions`` made by
    the governors) — the benchmark's events/s and decisions/s source.

    With a ``reply_latency_sampler``, each request also carries a
    reply-path latency: the end-to-end SLA (and the request's actual
    deadline) then accounts for ``request + sojourn + reply``, while
    governors keep seeing only the request slack — the paper's
    conservative Section IV-C rule.
    """
    rng = ensure_rng(config.seed)
    arrival_rng, latency_rng, work_rng, dispatch_rng = spawn(rng, 4)
    if network_latency_sampler is None:
        network_latency_sampler = constant_latency_sampler(config.network_budget_s / 2.0)

    loop = EventLoop()

    # The first instance is probed for its class configuration
    # (``network_aware``, ``name``) and then handed to core 0 — calling
    # the factory an extra throwaway time would silently advance
    # stateful factories.
    probe_governor = governor_factory()
    first_governor = [probe_governor]

    def _governor_factory():
        return first_governor.pop() if first_governor else governor_factory()

    server = MultiCoreServer(
        loop,
        service_model,
        _governor_factory,
        n_cores=config.n_cores,
        static_watts=config.static_watts,
        seed_or_rng=dispatch_rng,
        sleep_model=sleep_model,
        dispatch=config.dispatch,
    )

    # Server-level Poisson arrivals: rate = n_cores * per-core rate.
    per_core_rate = service_model.arrival_rate_for_utilization(config.utilization)
    rate = per_core_rate * config.n_cores

    # Pre-draw in chunks to amortize RNG overhead; the buffers are
    # converted to plain lists once per refill so the per-arrival reads
    # are attribute-free C-level indexing (no numpy scalar boxing).
    chunk = 4096
    state = {"rid": 0, "i": chunk}  # force initial refill
    buffers: dict[str, list[float]] = {}

    def refill() -> None:
        netlat = np.asarray(network_latency_sampler(chunk, latency_rng), dtype=float)
        if reply_latency_sampler is not None:
            replat = np.asarray(reply_latency_sampler(chunk, latency_rng), dtype=float)
        else:
            replat = np.zeros(chunk)
        if np.any(netlat < 0) or np.any(replat < 0):
            raise ConfigurationError("network latency sampler returned negative values")
        buffers["gaps"] = arrival_rng.exponential(1.0 / rate, size=chunk).tolist()
        buffers["work"] = np.asarray(
            service_model.sample_work(chunk, work_rng), dtype=float
        ).tolist()
        buffers["netlat"] = netlat.tolist()
        buffers["replat"] = replat.tolist()
        state["i"] = 0

    network_aware = probe_governor.network_aware

    def next_arrival() -> None:
        if state["i"] >= chunk:
            refill()
        i = state["i"]
        state["i"] += 1
        now = loop.now
        net_latency = buffers["netlat"][i]
        reply_latency = buffers["replat"][i]
        # Actual SLA deadline covers the full round trip; the governor's
        # deadline never includes the reply (request slack only).
        deadline = now + config.latency_constraint_s - net_latency - reply_latency
        governor_deadline = (
            now + config.latency_constraint_s - net_latency
            if network_aware
            else now + config.server_budget_s
        )
        request = Request(
            rid=state["rid"],
            arrival_time=now,
            work=buffers["work"][i],
            deadline=deadline,
            governor_deadline=governor_deadline,
            network_latency=net_latency,
            reply_latency=reply_latency,
        )
        state["rid"] += 1
        server.submit(request)
        # The arrival chain is never cancelled: skip handle allocation.
        loop.schedule_fast_after(buffers["gaps"][i], next_arrival)

    refill()
    loop.schedule_fast_after(buffers["gaps"][state["i"]], next_arrival)
    state["i"] += 1
    # Simulate the warmup, then restart the power/busy meters so the
    # reported power is steady-state (feedback governors ramp in).
    loop.run_until(config.warmup_s)
    server.reset_statistics()
    loop.run_until(config.duration_s)

    if stats_out is not None:
        stats_out["n_events"] = loop.n_processed
        stats_out["n_decisions"] = sum(
            getattr(core.governor, "n_decisions", 0) for core in server.cores
        )

    # One pass over completed requests into a preallocated array, then
    # vectorized latency/violation math — no per-request property calls
    # or repeated list comprehensions.
    all_completed = server.completed_requests()
    fields = np.empty((len(all_completed), 4))
    n = 0
    warmup = config.warmup_s
    for r in all_completed:
        if r.arrival_time >= warmup:
            row = fields[n]
            row[0] = r.arrival_time
            row[1] = r.finish_time
            row[2] = r.network_latency + r.reply_latency
            row[3] = r.deadline
            n += 1
    if n == 0:
        raise ConfigurationError(
            "no requests completed after warmup; increase duration or load"
        )
    fields = fields[:n]
    sojourns = fields[:, 1] - fields[:, 0]
    totals = sojourns + fields[:, 2]
    violations = fields[:, 1] > fields[:, 3] + 1e-12
    busy = np.array(server.busy_fractions())
    freqs = np.array([c.mean_busy_frequency for c in server.cores])
    busy_total = busy.sum()
    mean_freq = float(np.dot(busy, freqs) / busy_total) if busy_total > 0 else 0.0

    return ServerSimResult(
        governor=governor_name or probe_governor.name,
        config=config,
        n_completed=n,
        cpu_power_watts=server.cpu_power(),
        server_power_watts=server.total_power(),
        total_latency=LatencySummary.from_samples(totals),
        sojourn=LatencySummary.from_samples(sojourns),
        violation_rate=float(violations.mean()),
        mean_busy_frequency_hz=mean_freq,
        mean_busy_fraction=float(busy.mean()),
    )
