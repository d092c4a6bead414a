"""Import-cost guard: the heavy SciPy submodules stay out of the stack.

``scipy.signal`` pulls in ``scipy.stats`` and costs about a second to
import; ``scipy.optimize`` and ``scipy.sparse`` are only needed by the
exact MILP (HiGHS).  The controller stack must import none of them, the
figure drivers neither ``signal`` nor ``stats``, and running a sweep
point must import no SciPy module at all, so no import cost moves into a
sweep's measured phase.  Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import repro.consolidation, repro.control, repro.telemetry
import repro.flows.dynamics, repro.workloads.search
leaked = {"scipy.signal", "scipy.stats", "scipy.optimize", "scipy.sparse"} & scipy_modules()
assert not leaked, f"controller stack imported {sorted(leaked)}"

import repro.experiments.fig13_joint_power, repro.experiments.fig15_diurnal
leaked = {"scipy.signal", "scipy.stats"} & scipy_modules()
assert not leaked, f"figure drivers imported {sorted(leaked)}"

from repro.core.joint import JointSimParams
from repro.exec import ExecContext, SweepTask, run_sweep, set_context

set_context(ExecContext(jobs=1, cache=False))
params = JointSimParams(sim_cores=1, duration_s=1.0, warmup_s=0.2)
before = scipy_modules()
tasks = [
    SweepTask.make(
        "joint-eval", arity=4, constraint_ms=25.0, background=0.2, level=2,
        utilization=0.3, governor="eprons-server", params=params, traffic_seed=1,
    ),
    SweepTask.make(
        "diurnal-profile", arity=4, scheme="eprons", level=2, bg_bucket=0.2,
        util_grid=(0.15, 0.3), params=params, traffic_seed=1,
    ),
]
for outcome in run_sweep(tasks):
    outcome.unwrap()
added = scipy_modules() - before
assert not added, f"running sweep points imported {sorted(added)}"
print("ok")
"""


def test_heavy_scipy_stays_out_of_imports_and_sweeps():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.strip() == "ok"
