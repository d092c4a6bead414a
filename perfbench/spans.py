"""Span tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` (listed in :data:`LAYER_TARGETS`) in place: class methods are
replaced on their class, module functions in every loaded ``repro``
module that holds a reference to them.  Nothing under ``src/`` is
edited.  Spans (name, start, end, parent) are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from bisect import bisect_right
from time import perf_counter

from bench_stats import self_times, union_length

#: (span name, module, attribute) — one entry per wrapped entry point.
#: ``Class.method`` attributes are patched on the class.
LAYER_TARGETS = (
    ("exec.run_sweep", "repro.exec.executor", "run_sweep"),
    ("sim.server_sim", "repro.sim.runner", "run_server_simulation"),
    ("simfast.multipoint", "repro.simfast.multipoint", "run_multipoint_simulation"),
    ("simfast.table_engine", "repro.simfast.tables", "shared_table_engine"),
    ("simfast.table_build", "repro.simfast.tables", "VPTableEngine.stack"),
    ("core.evaluate", "repro.core.joint", "evaluate_operating_point"),
    ("core.evaluate", "repro.core.joint", "evaluate_operating_points"),
    ("core.day", "repro.core.eprons", "DiurnalRunner.run"),
    ("netsim.model_build", "repro.netsim.network", "NetworkModel.__init__"),
    ("netsim.latency_summary", "repro.netsim.network", "NetworkModel.query_latency_summary"),
    ("consolidation.delta_solve", "repro.consolidation.delta", "DeltaConsolidator.consolidate"),
    ("consolidation.full_solve", "repro.consolidation.heuristic", "GreedyConsolidator.consolidate"),
    ("consolidation.route_on_subnet", "repro.consolidation.heuristic", "route_on_subnet"),
    ("netfast.path_set", "repro.netfast.index", "TopologyIndex.path_set"),
    ("netfast.index_build", "repro.netfast.index", "topology_index"),
    ("control.predict", "repro.control.monitor", "TrafficMonitor.predicted_traffic"),
    ("control.observe", "repro.control.monitor", "TrafficMonitor.observed_traffic"),
    ("control.rules_diff", "repro.control.rules", "diff_routings"),
    ("control.rules_diff", "repro.control.rules", "diff_subnets"),
    ("control.run_epoch", "repro.control.controller", "SdnController.run_epoch"),
    ("telemetry.feed", "repro.telemetry.collector", "DegradedStatsCollector.feed"),
    ("flows.churn_advance", "repro.flows.dynamics", "FlowChurnModel.advance"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: ``[name, start, end, parent]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_engines: list[object] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "simfast.table_build":
            return self._wrap_table_build(name, fn)
        spans, stack = self.spans, self._stack
        on_result = self._result_hooks().get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(spans[idx], result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_table_build(self, name: str, fn):
        """``VPTableEngine.stack`` runs once per DES decision but builds
        VP rows only on a miss, so only calls that grew the engine's
        ``n_rows_built`` become spans.  It calls no wrapped entry point,
        so a span appended after the call has no children."""
        spans, stack = self.spans, self._stack

        def wrapper(engine, *args, **kwargs):
            rows = engine.n_rows_built
            start = perf_counter()
            result = fn(engine, *args, **kwargs)
            end = perf_counter()
            if engine.n_rows_built != rows:
                spans.append([name, start, end, stack[-1] if stack else -1])
            return result

        return functools.wraps(fn)(wrapper)

    def _result_hooks(self) -> dict:
        def sim_done(span, result):
            self.counts["sim.requests"] = self.counts.get("sim.requests", 0) + result.n_completed

        def table_engine(span, result):
            # A call that hands back an engine not seen before made it.
            if not any(result is e for e in self._seen_engines):
                self._seen_engines.append(result)
                self.counts["simfast.table_builds"] = self.counts.get("simfast.table_builds", 0) + 1

        return {"sim.server_sim": sim_done, "simfast.table_engine": table_engine}

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_TARGETS`."""
        for name, module_name, attr in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def self_by_name(self, windows=None) -> dict:
        """Per span name: ``{"self_s", "calls"}``, over every span or over
        the spans that start inside one of ``windows``."""
        tuples = [tuple(s) for s in self.spans]
        bounds = sorted(windows) if windows is not None else None
        out: dict[str, dict] = {}
        for span, self_s in zip(tuples, self_times(tuples)):
            if bounds is not None:
                i = bisect_right(bounds, (span[1], float("inf"))) - 1
                if i < 0 or span[1] >= bounds[i][1]:
                    continue
            entry = out.setdefault(span[0], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += 1
        return out

    def covered(self, windows) -> float:
        """Seconds of ``windows`` that some top-level span covers."""
        tops = [(s[1], s[2]) for s in self.spans if s[3] == -1]
        return sum(
            union_length((max(s, start), min(e, end)) for s, e in tops if e > start and s < end)
            for start, end in windows
        )
