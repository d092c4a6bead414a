"""Task-function registry.

Worker processes receive a :class:`~repro.exec.tasks.SweepTask` naming
its function by registry key — closures and lambdas do not survive
pickling, registered module-level functions do.  Keys resolve lazily:
if a key is unknown, the standard op modules are imported (which
registers them) before failing.  Pool workers call :func:`preload_ops`
once from their initializer instead, so per-task resolution is a plain
dict lookup.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable

from ..errors import ConfigurationError

__all__ = [
    "task_fn",
    "resolve_task_fn",
    "preload_ops",
    "TASK_FUNCTIONS",
]

#: registry key -> callable(**params) -> picklable result.
TASK_FUNCTIONS: dict[str, Callable] = {}

#: Modules imported on a failed lookup to populate the registry.
_OP_MODULES = ("repro.exec.ops",)

#: Times this process ran an op-module import pass (the spawn-count
#: regression metric: must be 1 per worker, not 1 per task).
PRELOAD_PASSES = 0

_PRELOADED = False


def task_fn(key: str):
    """Decorator: register a module-level function as a task op."""

    def wrap(fn):
        existing = TASK_FUNCTIONS.get(key)
        if existing is not None and existing is not fn:
            raise ConfigurationError(f"task function {key!r} registered twice")
        TASK_FUNCTIONS[key] = fn
        return fn

    return wrap


def preload_ops() -> None:
    """Import every op module once (pool-initializer hook).

    Idempotent per process; makes all later :func:`resolve_task_fn`
    calls plain dict lookups.
    """
    global _PRELOADED, PRELOAD_PASSES
    if _PRELOADED:
        return
    for module in _OP_MODULES:
        importlib.import_module(module)
    PRELOAD_PASSES += 1
    _PRELOADED = True


def resolve_task_fn(key: str) -> Callable:
    """Look up a task function, importing op modules on first miss."""
    fn = TASK_FUNCTIONS.get(key)
    if fn is None:
        preload_ops()
        fn = TASK_FUNCTIONS.get(key)
    if fn is None:
        raise ConfigurationError(
            f"unknown task function {key!r}; known: {sorted(TASK_FUNCTIONS)}"
        )
    return fn
