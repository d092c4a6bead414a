"""Execution context: how sweeps run (parallelism, caching).

Experiments read the ambient :class:`ExecContext` via :func:`get_context`
so the CLI's ``--jobs N`` / ``--no-cache`` flags reach every driver
without threading a parameter through each ``run()`` signature.  Tests
and library callers override it explicitly (``use_context``) or pass a
context straight to :func:`~repro.exec.executor.run_sweep`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = ["ExecContext", "get_context", "set_context", "use_context"]

#: Default on-disk cache location (overridable via $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass(frozen=True)
class ExecContext:
    """Sweep-execution knobs.

    Attributes
    ----------
    jobs:
        Worker processes for sweep fan-out; ``1`` (the default) runs
        tasks serially in-process, with no multiprocessing involved.
    cache:
        Whether task/sub-result memoization to disk is enabled.
    cache_dir:
        Cache root; ``None`` means ``$REPRO_CACHE_DIR`` or
        ``.repro_cache/`` under the current working directory.
    journal_dir:
        With a directory set, every sweep appends its progress to a
        crash-safe :class:`~repro.exec.journal.RunJournal` under it
        (one file per task list, named by the list's content digest).
    resume:
        Serve terminal outcomes recorded in an existing journal instead
        of re-running their tasks (the CLI's ``--resume``).
    max_retries / backoff_base_s / timeout_s:
        Ambient :class:`~repro.exec.journal.RetryPolicy` fields applied
        to sweeps that do not pass an explicit policy; the defaults
        reproduce the historical single-shot, unbounded behaviour.
    batch:
        Whether the executor fuses cache-missing tasks of batchable ops
        (:func:`~repro.exec.registry.register_batchable`) into
        vectorized batch calls.  Fusion is value-transparent: outcomes,
        per-point cache entries and journal records are identical to
        scalar dispatch (``--no-batch`` to disable).
    """

    jobs: int = 1
    cache: bool = True
    cache_dir: str | None = None
    journal_dir: str | None = None
    resume: bool = False
    max_retries: int = 0
    backoff_base_s: float = 0.0
    timeout_s: float | None = None
    batch: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )

    def resolved_cache_dir(self) -> str:
        return self.cache_dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)

    def with_(self, **changes) -> "ExecContext":
        return replace(self, **changes)


_current = ExecContext()


def get_context() -> ExecContext:
    """The ambient execution context (serial + cached by default)."""
    return _current


def set_context(ctx: ExecContext) -> ExecContext:
    """Install ``ctx`` as the ambient context; returns the previous one."""
    global _current
    previous = _current
    _current = ctx
    return previous


@contextmanager
def use_context(ctx: ExecContext):
    """Temporarily install ``ctx`` (tests, nested sweeps)."""
    previous = set_context(ctx)
    try:
        yield ctx
    finally:
        set_context(previous)
