"""Adversarial workload pack: traces built to break fixed policies.

The paper sweeps K and the governor offline against well-behaved
diurnal load.  An *online* controller must instead survive traffic that
shifts regimes faster than any one operating point stays optimal.  This
module packages four such stressors as picklable, seed-deterministic
:class:`AdversarialScenario` values:

* **flash crowd** — step ×N arrival surges: search load and background
  demand jump to a multiple of the base level for a few epochs and
  snap back, repeatedly.  A fixed small K violates the SLA through
  every surge; a fixed large K wastes energy through every lull.
* **incast** — synchronized fan-in: on burst epochs, many sources
  converge heavy flows onto the hosts of one shared edge switch,
  concentrating load on the agg/core layer feeding that pod.
* **regime change** — piecewise diurnal: :func:`synth_diurnal_trace`
  segments with abruptly different mean/variance spliced end to end,
  so the "day shape" a predictor learned stops being true mid-run.
* **compound** — a regime-change trace overlaid with a seeded
  :class:`~repro.faults.FaultSchedule` and a degraded
  :class:`~repro.telemetry.TelemetryProfile`: every failure mode the
  robustness stack handles individually, at once.

Each scenario carries a per-epoch ``regimes`` labelling used by the
regret accounting (the oracle picks one operating point *per regime*),
converts to a :class:`~repro.workloads.diurnal.DiurnalTrace` for
fingerprinting (:mod:`.traceio`), and is
reconstructible from ``(name, n_epochs, seed)`` alone so sweep tasks
stay primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..rng import ensure_rng
from ..telemetry.profile import TelemetryProfile
from .diurnal import DiurnalTrace, synth_diurnal_trace

__all__ = [
    "FaultSpec",
    "AdversarialScenario",
    "flash_crowd",
    "incast_bursts",
    "regime_change",
    "compound",
    "build_scenario",
    "ADVERSARIAL_SCENARIOS",
]

#: Background utilization is clipped below this: the consolidator must
#: keep headroom for the latency-sensitive mice even mid-surge.
_BG_CEILING = 0.92


@dataclass(frozen=True)
class FaultSpec:
    """Picklable parameters regenerating a fault schedule.

    Scenarios must stay topology-independent (the same pack replays at
    any arity), so they carry the generator's inputs rather than a
    materialized :class:`~repro.faults.FaultSchedule`.
    """

    switch_fail_prob: float = 0.0
    link_fail_prob: float = 0.0
    mean_repair_epochs: float = 2.0
    seed: int = 0

    def schedule(self, topology, n_epochs: int):
        from ..faults import FaultSchedule

        return FaultSchedule.generate(
            topology,
            n_epochs,
            switch_fail_prob=self.switch_fail_prob,
            link_fail_prob=self.link_fail_prob,
            mean_repair_epochs=self.mean_repair_epochs,
            seed=self.seed,
        )


@dataclass(frozen=True)
class AdversarialScenario:
    """One adversarial trace: per-epoch load series plus overlays.

    Attributes
    ----------
    name / kind:
        Identity; ``kind`` is one of the four builder families.
    search_load:
        Per-epoch search load as a fraction of peak (0, 1] — drives the
        server-side operating point.
    background_utilization:
        Per-epoch background (elephant) target utilization in
        [0, :data:`_BG_CEILING`] — drives the churn model.
    regimes:
        Per-epoch regime label; the oracle's unit of optimality.
    incast_epochs / incast_fanin / incast_demand_fraction:
        Synchronized fan-in bursts: on each listed epoch,
        ``incast_fanin`` sources converge flows totalling
        ``incast_demand_fraction`` of one access link's capacity onto
        the hosts of a single shared edge switch.
    faults:
        Optional :class:`FaultSpec` overlay (compound scenarios).
    telemetry:
        Optional degraded :class:`~repro.telemetry.TelemetryProfile`;
        ``None`` means perfect telemetry.
    seed:
        The seed the builder was invoked with (part of the identity).
    """

    name: str
    kind: str
    search_load: tuple[float, ...]
    background_utilization: tuple[float, ...]
    regimes: tuple[int, ...]
    incast_epochs: tuple[int, ...] = ()
    incast_fanin: int = 0
    incast_demand_fraction: float = 0.0
    faults: FaultSpec | None = None
    telemetry: TelemetryProfile | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.search_load)
        if n == 0:
            raise ConfigurationError("scenario must have at least one epoch")
        if len(self.background_utilization) != n or len(self.regimes) != n:
            raise ConfigurationError("scenario series must have equal length")
        sl = np.asarray(self.search_load)
        bg = np.asarray(self.background_utilization)
        if np.any((sl <= 0) | (sl > 1)):
            raise ConfigurationError("search load must lie in (0, 1]")
        if np.any((bg < 0) | (bg >= 1)):
            raise ConfigurationError("background utilization must lie in [0, 1)")
        if any(not 0 <= e < n for e in self.incast_epochs):
            raise ConfigurationError("incast epoch outside the scenario")
        if self.incast_epochs and self.incast_fanin <= 0:
            raise ConfigurationError("incast bursts need a positive fan-in")
        if not 0.0 <= self.incast_demand_fraction <= 1.0:
            raise ConfigurationError("incast demand fraction must lie in [0, 1]")

    @property
    def n_epochs(self) -> int:
        return len(self.search_load)

    @property
    def n_regimes(self) -> int:
        return len(set(self.regimes))

    def trace(self) -> DiurnalTrace:
        """The load series as a (fingerprintable) trace."""
        return DiurnalTrace(
            minutes=np.arange(self.n_epochs, dtype=float),
            search_load=np.asarray(self.search_load, dtype=float),
            background_utilization=np.asarray(
                self.background_utilization, dtype=float
            ),
        )

    def fingerprint(self) -> str:
        """Content key (same scenario ⇒ same key, any process)."""
        from .traceio import scenario_fingerprint

        return scenario_fingerprint(self)


# -- builders ----------------------------------------------------------------------


def _clip_series(values, lo: float, hi: float) -> tuple[float, ...]:
    return tuple(float(v) for v in np.clip(np.asarray(values, dtype=float), lo, hi))


def flash_crowd(
    n_epochs: int = 48,
    base_search: float = 0.3,
    base_background: float = 0.15,
    surge_scale: float = 2.7,  # surge bg ~0.4: K<4 dirty, K=4 clean
    surge_search_cap: float = 0.85,
    surge_period: int = 12,
    surge_length: int = 3,
    noise: float = 0.02,
    seed: int = 0,
) -> AdversarialScenario:
    """Step ×N arrival surges on a quiet base load.

    Every ``surge_period`` epochs the load steps to ``surge_scale``
    times the base for ``surge_length`` epochs, then snaps back — the
    canonical flash crowd.  Regime 0 is the base, regime 1 the surge.

    The defaults are calibrated to the fat-tree's differentiating band:
    at the base background (~0.15) every K stays inside the 5 ms budget
    but K=4 already reserves extra switches, while at the surge level
    (~0.4) only K=4 leaves enough headroom — so a small fixed K pays
    SLA penalties through every surge and a large fixed
    (K, governor) pays spare energy through every lull.  The search
    surge is capped at ``surge_search_cap``: the servers stay below the
    outright saturation knee at the *plateau*, so the surge punishes
    lagging DVFS plans at the onset (one epoch of saturated backlog)
    rather than every governor for the surge's whole duration.
    """
    if n_epochs <= 0:
        raise ConfigurationError("n_epochs must be positive")
    if surge_scale < 1.0:
        raise ConfigurationError("surge scale must be >= 1")
    if not 0 < surge_length < surge_period:
        raise ConfigurationError("need 0 < surge_length < surge_period")
    if not 0 < surge_search_cap <= 1.0:
        raise ConfigurationError("surge search cap must be in (0, 1]")
    rng = ensure_rng(seed)
    search = np.full(n_epochs, base_search)
    background = np.full(n_epochs, base_background)
    regimes = np.zeros(n_epochs, dtype=int)
    for start in range(surge_period - surge_length, n_epochs, surge_period):
        stop = min(start + surge_length, n_epochs)
        search[start:stop] = min(base_search * surge_scale, surge_search_cap)
        background[start:stop] *= surge_scale
        regimes[start:stop] = 1
    if noise > 0:
        search = search * (1.0 + rng.uniform(-noise, noise, n_epochs))
        background = background * (1.0 + rng.uniform(-noise, noise, n_epochs))
    return AdversarialScenario(
        name=f"flash-crowd-{n_epochs}x{surge_scale:g}-s{seed}",
        kind="flash-crowd",
        search_load=_clip_series(search, 0.05, 1.0),
        background_utilization=_clip_series(background, 0.0, _BG_CEILING),
        regimes=tuple(int(r) for r in regimes),
        seed=seed,
    )


def incast_bursts(
    n_epochs: int = 32,
    base_search: float = 0.35,
    base_background: float = 0.2,
    burst_period: int = 6,
    fanin: int = 8,
    demand_fraction: float = 0.5,
    noise: float = 0.02,
    seed: int = 0,
) -> AdversarialScenario:
    """Synchronized fan-in onto one shared edge switch.

    The ambient load stays flat; the adversary is the *shape*: on every
    ``burst_period``-th epoch, ``fanin`` sources converge flows worth
    ``demand_fraction`` of an access link onto the hosts of a single
    edge switch, concentrating demand on the agg/core paths into that
    pod.  Regime 0 is ambient, regime 1 a burst epoch.
    """
    if n_epochs <= 0:
        raise ConfigurationError("n_epochs must be positive")
    if burst_period <= 1:
        raise ConfigurationError("burst period must be > 1")
    rng = ensure_rng(seed)
    search = np.full(n_epochs, base_search)
    background = np.full(n_epochs, base_background)
    if noise > 0:
        search = search * (1.0 + rng.uniform(-noise, noise, n_epochs))
        background = background * (1.0 + rng.uniform(-noise, noise, n_epochs))
    bursts = tuple(range(burst_period - 1, n_epochs, burst_period))
    regimes = tuple(1 if e in set(bursts) else 0 for e in range(n_epochs))
    return AdversarialScenario(
        name=f"incast-{n_epochs}x{fanin}-s{seed}",
        kind="incast",
        search_load=_clip_series(search, 0.05, 1.0),
        background_utilization=_clip_series(background, 0.0, _BG_CEILING),
        regimes=regimes,
        incast_epochs=bursts,
        incast_fanin=fanin,
        incast_demand_fraction=demand_fraction,
        seed=seed,
    )


def regime_change(
    n_epochs: int = 36,
    n_segments: int = 3,
    seed: int = 0,
) -> AdversarialScenario:
    """Piecewise diurnal segments with abrupt mean/variance shifts.

    Each segment is a :func:`synth_diurnal_trace` sampled around a
    different hour of a day with a different (min, max, noise)
    envelope — splicing them produces discontinuities no single-day
    predictor anticipates.  Regime = segment index.
    """
    if n_epochs < n_segments:
        raise ConfigurationError("need at least one epoch per segment")
    if n_segments <= 1:
        raise ConfigurationError("regime change needs >= 2 segments")
    rng = ensure_rng(seed)
    # Segment envelopes alternate quiet / busy / mid with distinct
    # variance so adjacent regimes differ in both mean and spread.
    envelopes = [
        dict(search_min=0.15, search_max=0.35, background_min=0.08,
             background_max=0.22, noise=0.01),
        dict(search_min=0.6, search_max=0.9, background_min=0.3,
             background_max=0.45, noise=0.04),
        dict(search_min=0.3, search_max=0.55, background_min=0.15,
             background_max=0.35, noise=0.03),
    ]
    seg_len = n_epochs // n_segments
    search: list[float] = []
    background: list[float] = []
    regimes: list[int] = []
    for s in range(n_segments):
        length = seg_len if s < n_segments - 1 else n_epochs - seg_len * (n_segments - 1)
        env = envelopes[s % len(envelopes)]
        day = synth_diurnal_trace(
            peak_minute=int(rng.integers(0, 1440)),
            seed_or_rng=int(rng.integers(0, 2**31 - 1)),
            **env,
        )
        # Subsample the day at a coarse stride so each segment carries
        # the envelope's trend, not just one operating point.
        idx = np.linspace(0, len(day) - 1, length).astype(int)
        search.extend(float(v) for v in day.search_load[idx])
        background.extend(float(v) for v in day.background_utilization[idx])
        regimes.extend([s] * length)
    return AdversarialScenario(
        name=f"regime-change-{n_epochs}x{n_segments}-s{seed}",
        kind="regime-change",
        search_load=_clip_series(search, 0.05, 1.0),
        background_utilization=_clip_series(background, 0.0, _BG_CEILING),
        regimes=tuple(regimes),
        seed=seed,
    )


def compound(
    n_epochs: int = 36,
    n_segments: int = 3,
    switch_fail_prob: float = 0.01,
    link_fail_prob: float = 0.005,
    mean_repair_epochs: float = 2.0,
    stats_loss_prob: float = 0.15,
    stale_prob: float = 0.1,
    delay_prob: float = 0.05,
    noise_frac: float = 0.05,
    seed: int = 0,
) -> AdversarialScenario:
    """Regime changes + device faults + degraded telemetry, at once.

    The compound scenario is the robustness stack's integration test:
    the adaptive layer must compose with the fault ladder and the
    guardrail while its own telemetry context is lossy.
    """
    base = regime_change(n_epochs=n_epochs, n_segments=n_segments, seed=seed)
    return AdversarialScenario(
        name=f"compound-{n_epochs}x{n_segments}-s{seed}",
        kind="compound",
        search_load=base.search_load,
        background_utilization=base.background_utilization,
        regimes=base.regimes,
        faults=FaultSpec(
            switch_fail_prob=switch_fail_prob,
            link_fail_prob=link_fail_prob,
            mean_repair_epochs=mean_repair_epochs,
            seed=seed + 1,
        ),
        telemetry=TelemetryProfile(
            stats_loss_prob=stats_loss_prob,
            stale_prob=stale_prob,
            delay_prob=delay_prob,
            noise_frac=noise_frac,
            seed=seed + 2,
        ),
        seed=seed,
    )


#: Registry of builder families (the ``scenario`` axis of sweep specs).
_BUILDERS = {
    "flash-crowd": flash_crowd,
    "incast": incast_bursts,
    "regime-change": regime_change,
    "compound": compound,
}

ADVERSARIAL_SCENARIOS = tuple(sorted(_BUILDERS))


def build_scenario(name: str, n_epochs: int | None = None, seed: int = 0) -> AdversarialScenario:
    """The named scenario at its default parameterization.

    Sweep specs stay primitive — ``(name, n_epochs, seed)`` — and every
    worker rebuilds the identical scenario from them; custom
    parameterizations call the builders directly.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown adversarial scenario {name!r}; known: {ADVERSARIAL_SCENARIOS}"
        )
    kwargs = {"seed": seed}
    if n_epochs is not None:
        kwargs["n_epochs"] = n_epochs
    return builder(**kwargs)
