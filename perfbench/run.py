"""Repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload fig13-grid --seed 1 --seconds 35 --trace 0

Each repeat runs in a fresh process (``worker.py``) with an empty
result cache and BLAS/OpenMP pools pinned to one thread.  Repeats
continue until the next one would end past ``--seconds``; the metrics
are medians over repeats.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints its per-layer metrics: one untraced repeat, then
one repeat with every layer entry point wrapped in spans; the
difference of their ``wall_s`` is the tracing overhead.  Pool workers
do not report spans, so a pooled workload's traced repeat runs serial
next to an untraced serial baseline, and its ``exec.*`` counts come
from the pooled repeat.

Every repeat's output digest must equal the others' and, for each
seed ``golden.json`` records, the golden digest.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record goes to
``.perfbench_out/``.  Exit status is 0 only when the outputs are
correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from bench_stats import check_digests, count_failures  # noqa: E402
from workloads import DEFAULT_SEEDS, JOBS  # noqa: E402

#: Wall-clock limit of one run; a repeat that would pass it is killed.
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RepeatFailed(RuntimeError):
    """A worker process exited abnormally or ran past the run limit."""


class Runner:
    """Starts worker processes inside a private scratch directory."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
        self.outdir = os.path.join(ROOT, ".perfbench_out")
        self.n = 0
        os.makedirs(self.tmp, exist_ok=True)
        os.makedirs(self.outdir, exist_ok=True)

    def repeat(self, mode: str, jobs: int) -> dict:
        """One worker process; returns its JSON record."""
        self.n += 1
        out = os.path.join(self.tmp, f"rep-{self.n}.json")
        cache = os.path.join(self.tmp, f"cache-{self.n}")
        env = dict(os.environ)
        env.update({v: "1" for v in THREAD_VARS})
        env.update(TMPDIR=self.tmp, REPRO_CACHE_DIR=cache)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--jobs", str(jobs), "--cache-dir", cache, "--out", out,
        ]
        if mode == "traced":
            cmd += ["--trace-out", os.path.join(
                self.outdir, f"trace-{self.workload}-seed{self.seed}.json")]
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The worker's session holds it and any pool workers it left.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            shutil.rmtree(cache, ignore_errors=True)
        if code != 0:
            raise RepeatFailed(
                f"{self.workload} {mode} repeat "
                + ("ran past the run limit" if code is None else f"exited with {code}")
            )
        with open(out) as fh:
            return json.load(fh)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass


def metric_run(runner: Runner, seconds: float, names) -> tuple[list, dict]:
    """Timed repeats until the next would end past ``seconds``; the
    median of each metric in ``names`` over them."""
    jobs = JOBS[runner.workload]
    reps = []
    t0 = perf_counter()
    while True:
        reps.append(runner.repeat("measure", jobs))
        elapsed = perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return reps, {k: statistics.median(r[k] for r in reps) for k in names}


def traced_run(runner: Runner) -> tuple[list, dict]:
    """An untraced repeat, a traced one, and the per-layer split."""
    jobs = JOBS[runner.workload]
    untraced = runner.repeat("measure", jobs)
    reps = [untraced]
    baseline = untraced
    if jobs > 1:
        baseline = runner.repeat("measure", 1)
        reps.append(baseline)
    traced = runner.repeat("traced", 1)
    reps.append(traced)
    metrics = dict(traced["layers"])
    for key, value in untraced["layers"].items():
        if key.startswith("exec."):
            metrics[key] = value
    metrics["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
    return reps, metrics


def source_identity() -> dict:
    """The git commit when there is one, and a digest of ``src/``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description="Repository benchmark (one workload).")
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None, help="default: the figure's own seed")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh).get(args.workload, {}).get(str(seed))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    runner = Runner(args.workload, seed, t_start + RUN_LIMIT_S)
    try:
        if args.trace:
            reps, values = traced_run(runner)
        else:
            reps, values = metric_run(runner, args.seconds, [m["name"] for m in wanted])
    except RepeatFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    problems = check_digests([r["digest"] for r in reps], golden)
    problems += [c for r in reps for c in r["checks"]]
    attempted, failed = count_failures(s for r in reps for s in r["statuses"])

    names = {m["name"] for m in wanted}
    unknown = sorted(set(values) - names)
    if args.trace:
        # A layer the workload never enters reports zero.
        values = {name: values.get(name, 0) for name in names}
    missing = sorted(names - set(values))
    if unknown or missing:
        print(f"perfbench: metrics not in BENCHMARK.json {unknown}, no value for {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": seed,
        "jobs": JOBS[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        **source_identity(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "op_tail_percentile": reps[0]["op_tail_percentile"],
        "digest": reps[0]["digest"],
        "golden": golden,
        "problems": problems,
        "repeats": [{k: v for k, v in r.items() if k != "statuses"} for r in reps],
        "metrics": metrics,
    }
    path = os.path.join(
        runner.outdir, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={seed} jobs={record['jobs']} repeats={len(reps)} "
          f"nproc={record['nproc']} load={record['loadavg'][0]:.2f} "
          f"python={record['python']} numpy={record['numpy']} git={record['git_sha']}")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        split = reps[-1].get("epoch_split_ms")
        if split:
            print("#   steady-epoch split (ms per epoch, self time):")
            for name, ms in sorted(split.items(), key=lambda kv: -kv[1]):
                print(f"#     {name:30s} {ms:10.2f}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
