"""Sweep execution: task model, parallel executor, persistent cache.

Every figure of the paper is a grid of *independent* operating points —
(governor, utilization, K, constraint, background) tuples each priced
by a full discrete-event simulation and/or a consolidation solve.  This
package turns each point into a picklable :class:`SweepTask`, fans task
lists out over worker processes (:func:`run_sweep`), and memoizes
results in a content-addressed on-disk cache keyed by spec + code
version, so re-runs are near-instant and figures share sub-results.

Typical driver shape::

    tasks = [SweepTask.make("server-sim", tag=(gov, u), governor=gov,
                            utilization=u, ...) for gov in ... for u in ...]
    for outcome in run_sweep(tasks):
        r = outcome.unwrap()        # or skip outcome.infeasible points
        result.add(*row_from(outcome.task.tag, r))

Parallelism and caching are ambient (:class:`ExecContext`), wired to
the CLI's ``--jobs`` / ``--no-cache`` flags.  Output is bit-identical
at every ``jobs`` level because task ops are pure functions of their
spec and outcomes are reassembled in task order.
"""

from .cache import ResultCache, cached_call, code_salt, probe_point
from .context import ExecContext, get_context, set_context, use_context
from .executor import SweepExecutionError, TaskOutcome, run_sweep, sweep_stats
from .journal import RetryPolicy, RunJournal
from .registry import (
    preload_ops,
    register_batchable,
    resolve_task_fn,
    task_fn,
)
from .orphans import sweep_orphans
from .tasks import BatchTask, SweepTask, canonical_json, derive_seed, spec_digest

__all__ = [
    "BatchTask",
    "ExecContext",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SweepExecutionError",
    "SweepTask",
    "TaskOutcome",
    "cached_call",
    "canonical_json",
    "code_salt",
    "derive_seed",
    "get_context",
    "preload_ops",
    "probe_point",
    "register_batchable",
    "resolve_task_fn",
    "run_sweep",
    "set_context",
    "spec_digest",
    "sweep_orphans",
    "sweep_stats",
    "task_fn",
    "use_context",
]
