"""Sweeper for shared-memory segments left by earlier versions.

Earlier versions of this package placed compiled sweep artifacts in
POSIX shared-memory segments named ``repro-shm-<owner pid>-<digest>``.
A run killed before its exit handlers left those segments behind, and
nothing in this version creates them, so they can only be leftovers.
:func:`sweep_orphans` removes the ones whose owner is gone.
"""

from __future__ import annotations

import os

__all__ = ["sweep_orphans"]

#: Where POSIX shared-memory segments live, and the name prefix of the
#: segments earlier versions created; no other name is ever touched.
_SEGMENT_DIR = "/dev/shm"
SEG_PREFIX = "repro-shm"


def sweep_orphans() -> list[str]:
    """Unlink leftover segments whose owner pid is dead; returns their names.

    A segment named with *this* pid is a leftover too: the pid was
    recycled from a run that died hard.  A live owner's segment (a
    concurrent run of an earlier version) is never touched.  No-op on
    platforms without a shared-memory filesystem.
    """
    try:
        names = os.listdir(_SEGMENT_DIR)
    except OSError:
        return []
    removed = []
    for name in names:
        if not name.startswith(SEG_PREFIX + "-"):
            continue
        try:
            pid = int(name.split("-")[2])
        except (IndexError, ValueError):
            continue
        if pid != os.getpid() and _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SEGMENT_DIR, name))
            removed.append(name)
        except OSError:
            pass
    return removed


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
