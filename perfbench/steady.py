"""Steadiness mode: every workload, several runs, one report.

Run from the repository root::

    python3 perfbench/steady.py --runs 10     # every workload, seeds 0..9

Each run is one ``run.py --trace 0`` invocation (``--seconds`` from
``BENCHMARK.json``), with seeds 0 to N-1.  For every end-to-end metric
the report gives the median, the quartiles of
``statistics.quantiles(n=4)`` and the spread (quartile distance over the
median); a metric whose spread exceeds its bound is flagged.  The
summary is written to ``.perfbench_out/steady.json``; the exit status is
1 if any run failed or any spread was flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from bench_stats import spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="Run each workload N times and report spreads.")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    report, bad = {}, False
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [
            one_run(workload, seed, bench["run_seconds"]) for seed in range(args.runs)
        ]
        entry = {"runs": runs, "metrics": {}}
        bad |= any(not r["correct"] or r["failed"] or r["exit"] for r in runs)
        print(f"== {workload}: {args.runs} runs, "
              f"{sum(r['correct'] for r in runs)} correct, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            s = spread(values)
            s["bound"] = m["bound"]
            s["flagged"] = s["spread"] > m["bound"]
            bad |= s["flagged"]
            entry["metrics"][m["name"]] = s
            print(f"  {m['name']:14s} median {s['median']:12.6g} {m['unit']:4s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.2%} "
                  f"bound {m['bound']:.0%}{'  FLAGGED' if s['flagged'] else ''}")
        report[workload] = entry

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
