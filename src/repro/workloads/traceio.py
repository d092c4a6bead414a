"""Trace file I/O.

The synthetic diurnal generator stands in for the Wikipedia trace [21];
deployments that *do* have a measured trace can load it from CSV and
drive the same experiments.  Format: a header line followed by
``minute,search_load,background_utilization`` rows (fractions in
[0, 1]).
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from .diurnal import DiurnalTrace

__all__ = [
    "save_trace_csv",
    "load_trace_csv",
    "trace_fingerprint",
    "scenario_fingerprint",
]

_HEADER = ["minute", "search_load", "background_utilization"]


def save_trace_csv(trace: DiurnalTrace, path) -> None:
    """Write a trace to ``path`` in the canonical CSV format."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for minute, load, bg in zip(
            trace.minutes, trace.search_load, trace.background_utilization
        ):
            writer.writerow([f"{minute:g}", f"{load:.6f}", f"{bg:.6f}"])


def load_trace_csv(path) -> DiurnalTrace:
    """Read a trace written by :func:`save_trace_csv` (or hand-made in
    the same format).  Validates the header and value ranges."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"trace file not found: {path}")
    minutes: list[float] = []
    loads: list[float] = []
    bgs: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"trace file {path} is empty") from None
        if [h.strip() for h in header] != _HEADER:
            raise ConfigurationError(
                f"trace file {path} has header {header}, expected {_HEADER}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ConfigurationError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                minutes.append(float(row[0]))
                loads.append(float(row[1]))
                bgs.append(float(row[2]))
            except ValueError as err:
                raise ConfigurationError(f"{path}:{lineno}: {err}") from None
    return DiurnalTrace(
        minutes=np.asarray(minutes),
        search_load=np.asarray(loads),
        background_utilization=np.asarray(bgs),
    )


def trace_fingerprint(trace: DiurnalTrace) -> str:
    """Content key of a trace (same samples ⇒ same key, any origin)."""
    h = hashlib.sha256()
    for arr in (trace.minutes, trace.search_load, trace.background_utilization):
        a = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(a.tobytes())
    return h.hexdigest()


def scenario_fingerprint(scenario) -> str:
    """Content key of an :class:`~repro.workloads.adversarial.AdversarialScenario`.

    Extends the trace fingerprint with every overlay that changes what a
    replay experiences — regime labels, incast shape, fault and
    telemetry parameters — so two scenarios with identical load series
    but different overlays never collide in the cache.
    """
    h = hashlib.sha256()
    h.update(trace_fingerprint(scenario.trace()).encode())
    meta = [
        scenario.kind,
        scenario.regimes,
        scenario.incast_epochs,
        scenario.incast_fanin,
        scenario.incast_demand_fraction,
        scenario.seed,
    ]
    if scenario.faults is not None:
        f = scenario.faults
        meta.append(
            (f.switch_fail_prob, f.link_fail_prob, f.mean_repair_epochs, f.seed)
        )
    if scenario.telemetry is not None:
        t = scenario.telemetry
        meta.append(
            (t.stats_loss_prob, t.stale_prob, t.delay_prob, t.noise_frac, t.seed)
        )
    h.update(repr(meta).encode())
    return h.hexdigest()
