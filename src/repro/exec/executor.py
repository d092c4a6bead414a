"""Parallel sweep executor.

Fans a list of :class:`~repro.exec.tasks.SweepTask` out over a
``concurrent.futures.ProcessPoolExecutor`` (``jobs > 1``) or runs them
serially in-process (``jobs == 1``), and reassembles results **in task
order** regardless of completion order — which, combined with task
functions being pure functions of their spec, makes sweep output
bit-identical at any parallelism level.

Each task yields a :class:`TaskOutcome` that distinguishes the ways a
sweep point can end:

* ``ok`` — the task function's return value;
* ``infeasible`` — it raised :class:`~repro.errors.InfeasibleError`
  (an operating point the paper's optimizer legitimately rejects, e.g.
  "aggregation 3 cannot support a tail latency constraint < 29 ms");
* ``timeout`` — it blew its :class:`~repro.exec.journal.RetryPolicy`
  wall-clock budget and the parent cut it loose (pool runs only);
* ``error`` — it crashed; the traceback is captured so one bad point
  does not take down a 200-point sweep, and :meth:`TaskOutcome.unwrap`
  re-raises loudly for callers that want fail-fast behavior.

The executor is self-healing on three axes, all off by default:

* **retries** — ``error``/``timeout`` outcomes are re-dispatched up to
  ``policy.max_retries`` times with deterministic exponential backoff
  (``infeasible`` is an answer, not a failure — never retried);
* **timeouts** — a hung worker is detected at collection, its pool torn
  down, and the casualties retried on a fresh pool;
* **journal** — with ``journal_path`` set, every finished task is
  appended (fsynced) to a :class:`~repro.exec.journal.RunJournal`;
  ``resume=True`` serves journaled terminal outcomes without re-running
  them, so a sweep killed at task 173 of 200 restarts at 174.

Pool-initializer hoisting is value-transparent: workers set up their
ambient context, cache handle and op registry **once** per process
(not per task).  Each worker builds its own compiled topology indexes
and VP tables on first use and keeps them warm for every later task.

Results are memoized through :mod:`repro.exec.cache`; fully warm sweeps
never spin up a process pool at all.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter, sleep

from ..errors import InfeasibleError, SimulationError
from .cache import STATUS_INFEASIBLE, STATUS_OK, ResultCache
from .context import ExecContext, get_context, set_context, use_context
from .journal import RetryPolicy, RunJournal
from .registry import preload_ops, resolve_task_fn
from .tasks import SweepTask

__all__ = ["TaskOutcome", "SweepExecutionError", "run_sweep", "sweep_stats"]


class SweepExecutionError(SimulationError):
    """A sweep task crashed (non-infeasibility failure)."""


@dataclass(frozen=True)
class TaskOutcome:
    """Result envelope for one executed (or cache/journal-served) task."""

    task: SweepTask
    status: str  # "ok" | "infeasible" | "timeout" | "error"
    value: object = None
    error: str = ""
    error_type: str = ""
    tb: str = ""
    duration_s: float = 0.0
    cached: bool = False
    #: Retry rounds this task consumed before settling (0 = first try).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def infeasible(self) -> bool:
        return self.status == "infeasible"

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"

    @property
    def retried(self) -> bool:
        return self.retries > 0

    def unwrap(self):
        """The value, or the task's failure re-raised."""
        if self.status == "ok":
            return self.value
        if self.status == "infeasible":
            raise InfeasibleError(self.error)
        raise SweepExecutionError(
            f"task {self.task} failed: {self.error_type}: {self.error}\n{self.tb}"
        )


# -- worker-process state ----------------------------------------------------------

#: Per-process state prepared once by the pool initializer; ``None``
#: means "serial / uninitialized" and tasks fall back to the ambient
#: context per call.
_WORKER: dict | None = None

#: Times the pool initializer ran in this process (regression metric:
#: exactly 1 per worker, however many tasks it executes).
_WORKER_INIT_COUNT = 0

#: Tasks this process executed via :func:`_execute_task`.
_TASKS_EXECUTED = 0


def _worker_init(ctx: ExecContext) -> None:
    """Pool-worker initializer: the once-per-process setup that
    ``_execute_task`` used to redo per task.

    Installs the worker's ambient context (``jobs=1`` so nested sweeps
    stay in-process), builds the cache handle and imports/registers
    every op module.
    """
    global _WORKER, _WORKER_INIT_COUNT, _TASKS_EXECUTED
    _WORKER_INIT_COUNT += 1
    # Forked workers inherit the parent's task counter (serial-mode
    # sweeps execute in-process); a fresh worker starts from zero.
    _TASKS_EXECUTED = 0
    set_context(ctx)
    preload_ops()
    _WORKER = {"cache": ResultCache(ctx.resolved_cache_dir(), enabled=ctx.cache)}


def _worker_context(ctx: ExecContext) -> ExecContext:
    """The context a task runs under inside a worker: serial, same
    cache flag, journal and retry fields dropped (journaling and
    retrying are the parent's job)."""
    return ExecContext(jobs=1, cache=ctx.cache, cache_dir=ctx.resolved_cache_dir())


def _execute_task(task: SweepTask) -> TaskOutcome:
    """Run one task (worker side); never raises."""
    global _TASKS_EXECUTED
    _TASKS_EXECUTED += 1
    if _WORKER is not None:
        cache = _WORKER["cache"]
    else:
        ctx = get_context()
        cache = ResultCache(ctx.resolved_cache_dir(), enabled=ctx.cache)
    start = perf_counter()
    try:
        fn = resolve_task_fn(task.fn)
        value = fn(**task.kwargs)
    except InfeasibleError as err:
        cache.store(task.fn, task.kwargs, STATUS_INFEASIBLE, str(err))
        return TaskOutcome(
            task=task,
            status="infeasible",
            error=str(err),
            error_type=type(err).__name__,
            duration_s=perf_counter() - start,
        )
    except Exception as err:  # noqa: BLE001 — worker must not die on task crash
        return TaskOutcome(
            task=task,
            status="error",
            error=str(err),
            error_type=type(err).__name__,
            tb=traceback.format_exc(),
            duration_s=perf_counter() - start,
        )
    cache.store(task.fn, task.kwargs, STATUS_OK, value)
    return TaskOutcome(
        task=task, status="ok", value=value, duration_s=perf_counter() - start
    )


# -- rounds ------------------------------------------------------------------------


def _run_round(
    tasks: list[SweepTask],
    indices: list[int],
    ctx: ExecContext,
    timeout_s: float | None,
) -> dict[int, TaskOutcome]:
    """Dispatch one attempt at every pending task; never raises.

    The wall-clock budget is enforced at collection: the parent waits
    at most ``timeout_s`` for each future in submission order, and the
    first timeout tears the whole pool down — a hung worker wedges every
    task queued behind it, so the casualties come back as retryable
    ``error``/``timeout`` outcomes rather than blocking the sweep.
    Serial runs cannot preempt themselves; the budget is ignored there.
    """
    results: dict[int, TaskOutcome] = {}
    if ctx.jobs > 1 and len(indices) > 1:
        pool = ProcessPoolExecutor(
            max_workers=min(ctx.jobs, len(indices)),
            initializer=_worker_init,
            initargs=(_worker_context(ctx),),
        )
        try:
            futures = [(i, pool.submit(_execute_task, tasks[i])) for i in indices]
            for i, future in futures:
                try:
                    out = future.result(timeout=timeout_s)
                except FuturesTimeoutError:
                    out = TaskOutcome(
                        task=tasks[i],
                        status="timeout",
                        error=f"exceeded the {timeout_s}s wall-clock budget",
                        error_type="TimeoutError",
                        duration_s=float(timeout_s),
                    )
                    for proc in list(pool._processes.values()):
                        proc.terminate()
                except BrokenProcessPool as err:
                    # A worker died hard (OOM kill, segfault, os._exit)
                    # and took the pool with it; every still-pending
                    # future raises this.  Convert each affected task to
                    # an error outcome — a sweep must never return None
                    # entries or let one dead worker raise past a
                    # 200-point run.
                    out = TaskOutcome(
                        task=tasks[i],
                        status="error",
                        error=str(err) or "process pool terminated abruptly",
                        error_type="BrokenProcessPool",
                    )
                results[i] = out
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        with use_context(_worker_context(ctx)):
            for i in indices:
                results[i] = _execute_task(tasks[i])
    return results


def run_sweep(
    tasks: list[SweepTask],
    ctx: ExecContext | None = None,
    policy: RetryPolicy | None = None,
    journal_path: str | None = None,
    resume: bool = False,
) -> list[TaskOutcome]:
    """Execute every task; outcomes are returned in task order.

    Cache hits are resolved in the parent process first; only misses are
    dispatched, so a warm sweep costs one cache probe per task.  With a
    ``journal_path``, every settled task is appended to a crash-safe
    :class:`~repro.exec.journal.RunJournal`; pass ``resume=True`` to
    serve previously journaled terminal outcomes instead of re-running
    them.  ``policy`` bounds per-task retries and wall-clock budgets
    (the default :class:`~repro.exec.journal.RetryPolicy` reproduces the
    historical single-shot behaviour exactly).
    """
    ctx = ctx or get_context()
    if policy is None:
        policy = RetryPolicy(
            max_retries=ctx.max_retries,
            backoff_base_s=ctx.backoff_base_s,
            timeout_s=ctx.timeout_s,
        )
    cache_dir = ctx.resolved_cache_dir()
    cache = ResultCache(cache_dir, enabled=ctx.cache)

    if journal_path is None and ctx.journal_dir:
        # One journal file per task list, named by the list's content
        # digest: re-invoking the same sweep (the --resume workflow)
        # lands on the same file without callers naming it.
        digest = hashlib.sha256(
            "\n".join(t.digest for t in tasks).encode()
        ).hexdigest()[:16]
        journal_path = os.path.join(ctx.journal_dir, f"sweep-{digest}.jsonl")
        resume = resume or ctx.resume
    journal = RunJournal(journal_path, resume=resume) if journal_path else None
    served = journal.completed() if journal is not None else {}

    try:
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        misses: list[int] = []
        for i, task in enumerate(tasks):
            record = served.get(task.digest)
            if record is not None:
                if record["status"] == STATUS_INFEASIBLE:
                    outcomes[i] = TaskOutcome(
                        task=task, status="infeasible", error=record["error"],
                        error_type="InfeasibleError", cached=True,
                        retries=record.get("retries", 0),
                    )
                else:
                    outcomes[i] = TaskOutcome(
                        task=task, status="ok", value=journal.value_of(record),
                        cached=True, retries=record.get("retries", 0),
                    )
                continue
            hit, status, value = cache.lookup(task.fn, task.kwargs)
            if not hit:
                misses.append(i)
            elif status == STATUS_INFEASIBLE:
                outcomes[i] = TaskOutcome(
                    task=task, status="infeasible", error=value,
                    error_type="InfeasibleError", cached=True,
                )
                _journal_record(journal, outcomes[i])
            else:
                outcomes[i] = TaskOutcome(
                    task=task, status="ok", value=value, cached=True
                )
                _journal_record(journal, outcomes[i])

        pending = misses
        attempt = 0
        while pending:
            round_results = _run_round(tasks, pending, ctx, policy.timeout_s)
            next_pending: list[int] = []
            for i in pending:
                out = round_results[i]
                if policy.retryable(out.status) and attempt < policy.max_retries:
                    next_pending.append(i)
                    continue
                out = replace(out, retries=attempt)
                outcomes[i] = out
                _journal_record(journal, out)
            pending = next_pending
            if pending:
                backoff = policy.backoff_s(attempt)
                if backoff > 0:
                    sleep(backoff)
                attempt += 1
    finally:
        if journal is not None:
            journal.close()
    return outcomes  # type: ignore[return-value]


def _journal_record(journal: RunJournal | None, out: TaskOutcome) -> None:
    if journal is None:
        return
    journal.record(
        out.task.digest,
        out.task.fn,
        out.status,
        value=out.value,
        error=out.error,
        error_type=out.error_type,
        tb=out.tb,
        duration_s=out.duration_s,
        retries=out.retries,
    )


def sweep_stats(outcomes: list[TaskOutcome]) -> str:
    """One-line summary: counts, cache hits, failure taxonomy, retries."""
    n = len(outcomes)
    cached = sum(1 for o in outcomes if o.cached)
    infeasible = sum(1 for o in outcomes if o.infeasible)
    errors = sum(1 for o in outcomes if o.status == "error")
    timeouts = sum(1 for o in outcomes if o.status == "timeout")
    retried = sum(1 for o in outcomes if o.retried)
    total_retries = sum(o.retries for o in outcomes)
    worker_s = sum(o.duration_s for o in outcomes)
    parts = [f"{n} tasks", f"{cached} cached", f"{worker_s:.1f}s task time"]
    if infeasible:
        parts.append(f"{infeasible} infeasible")
    if timeouts:
        parts.append(f"{timeouts} timeouts")
    if errors:
        parts.append(f"{errors} errors")
    if retried:
        parts.append(f"{retried} retried ({total_retries} retries)")
    return ", ".join(parts)
