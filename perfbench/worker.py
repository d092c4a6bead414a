"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat.  The clock starts before
anything else is imported, so ``setup_s`` covers interpreter-level
imports of the program, its execution context and input generation.
Modes:

* ``measure`` — set up, run the measured phase, report;
* ``traced`` — the same with every layer entry point wrapped in spans
  (:mod:`spans`); the spans are written to ``--trace-out``.

The result is one JSON object written to ``--out``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from bench_stats import tail_value  # noqa: E402
from workloads import WORKLOADS, peak_rss_mb  # noqa: E402


def layer_metrics(tracer, windows) -> dict:
    """Per-layer self times and call counts of a traced repeat."""
    totals = tracer.self_by_name()

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    sim_s = self_s("sim.server_sim")
    wall = sum(end - start for start, end in windows)
    return {
        "exec.run_sweep_self_s": self_s("exec.run_sweep"),
        "sim.server_sim_s": sim_s,
        "sim.server_sim_calls": calls("sim.server_sim"),
        "sim.requests_per_s": tracer.counts.get("sim.requests", 0) / sim_s if sim_s else 0.0,
        "simfast.multipoint_s": self_s("simfast.multipoint"),
        "simfast.multipoint_calls": calls("simfast.multipoint"),
        "simfast.table_build_s": self_s("simfast.table_build"),
        "simfast.table_builds": tracer.counts.get("simfast.table_builds", 0),
        "core.evaluate_s": self_s("core.evaluate"),
        "core.day_s": self_s("core.day"),
        "netsim.model_build_s": self_s("netsim.model_build"),
        "netsim.model_builds": calls("netsim.model_build"),
        "netsim.latency_summary_s": self_s("netsim.latency_summary"),
        "consolidation.delta_solve_s": self_s("consolidation.delta_solve"),
        "consolidation.full_solve_s": self_s("consolidation.full_solve"),
        "consolidation.full_solves": calls("consolidation.full_solve"),
        "consolidation.route_on_subnet_s": self_s("consolidation.route_on_subnet"),
        "netfast.path_set_s": self_s("netfast.path_set"),
        "netfast.path_set_calls": calls("netfast.path_set"),
        "netfast.index_build_s": self_s("netfast.index_build"),
        "control.predict_s": self_s("control.predict"),
        "control.observe_s": self_s("control.observe"),
        "control.rules_diff_s": self_s("control.rules_diff"),
        "control.run_epoch_self_s": self_s("control.run_epoch"),
        "telemetry.feed_s": self_s("telemetry.feed"),
        "flows.churn_advance_s": self_s("flows.churn_advance"),
        "trace.unattributed_frac": 1.0 - tracer.covered(windows) / wall,
        "trace.spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("measure", "traced"))
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    setup, measure = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(args.seed, args.jobs, args.cache_dir)
    setup_s = perf_counter() - T_START
    # Set-up garbage is collected before, not during, the measurement.
    gc.collect()
    out = measure(state)
    if tracer is not None:
        tracer.uninstall()
    windows = out.pop("windows")
    tail_p, tail_s = tail_value(out["op_s"])
    record = dict(
        setup_s=setup_s,
        wall_s=sum(end - start for start, end in windows),
        cpu_s=out["cpu_s"],
        peak_rss_mb=peak_rss_mb(),
        op_p50_ms=statistics.median(out["op_s"]) * 1e3,
        op_tail_ms=tail_s * 1e3,
        op_tail_percentile=tail_p,
        cold_s=out["cold_s"],
        statuses=out["statuses"],
        digest=out["digest"],
        checks=out["checks"],
        layers=out["layers"],
    )
    if "cold_repeats_s" in out:
        record["cold_repeats_s"] = out["cold_repeats_s"]
    if tracer is not None:
        record["layers"].update(layer_metrics(tracer, windows))
        if args.workload.startswith("ctrl"):
            steady = tracer.self_by_name(windows)
            record["epoch_split_ms"] = {
                name: v["self_s"] * 1e3 / len(windows) for name, v in sorted(steady.items())
            }
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)

    from repro.exec import sweep_orphans
    import numpy

    record["shm_reaped"] = len(sweep_orphans())
    record["numpy"] = numpy.__version__
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
