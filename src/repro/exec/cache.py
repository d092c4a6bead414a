"""Persistent, content-addressed result cache.

Memoizes expensive sweep sub-results — consolidation solves,
server-simulation runs, whole experiment points — on disk under
``.repro_cache/``.  A cache key is the SHA-256 of the task's canonical
spec **plus a code-version salt** (a digest of every ``repro/*.py``
source file), so editing any simulator code transparently invalidates
prior entries; there is no manual invalidation protocol beyond deleting
the directory.

Entries are pickled payloads written atomically (temp file +
``os.replace``), so concurrent worker processes can share one cache
directory without locks: the worst race is two workers computing the
same value and one overwriting the other with an identical payload.

Infeasible operating points are cached too (as a sentinel), so warm
re-runs skip known-infeasible consolidation solves; crashes are never
cached.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path

from ..errors import InfeasibleError
from .context import get_context
from .registry import resolve_task_fn
from .tasks import canonical_json

__all__ = ["ResultCache", "cached_call", "code_salt"]

#: Bump to invalidate every cache entry on cache-format changes.
_CACHE_FORMAT = 1

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the installed ``repro`` package's source files."""
    import repro

    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    h.update(f"format={_CACHE_FORMAT}".encode())
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class ResultCache:
    """On-disk pickle store keyed by (task spec, code salt)."""

    def __init__(self, root: str | os.PathLike | None = None, enabled: bool = True):
        if root is None:
            root = get_context().resolved_cache_dir()
        self.root = Path(root)
        self.enabled = enabled

    def key(self, fn: str, params: dict) -> str:
        payload = canonical_json({"fn": fn, "params": params, "salt": code_salt()})
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _path(self, fn: str, params: dict) -> Path:
        safe_fn = fn.replace("/", "_")
        return self.root / safe_fn / f"{self.key(fn, params)}.pkl"

    def lookup(self, fn: str, params: dict) -> tuple[bool, str, object]:
        """``(hit, status, value)``; corrupt entries count as misses."""
        if not self.enabled:
            return False, "", None
        path = self._path(fn, params)
        try:
            with open(path, "rb") as fh:
                status, value = pickle.load(fh)
        except FileNotFoundError:
            return False, "", None
        except Exception:
            # Truncated or stale-format entry: drop it and recompute.
            path.unlink(missing_ok=True)
            return False, "", None
        return True, status, value

    def store(self, fn: str, params: dict, status: str, value: object) -> None:
        if not self.enabled:
            return
        path = self._path(fn, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump((status, value), fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def cached_call(fn: str, cache: ResultCache | None = None, **params):
    """Run a registered task function through the cache.

    Returns the function's value on a hit or after computing+storing it;
    re-raises :class:`~repro.errors.InfeasibleError` for points cached
    as infeasible, so callers handle warm and cold runs identically.
    """
    ctx = get_context()
    if cache is None:
        cache = ResultCache(ctx.resolved_cache_dir(), enabled=ctx.cache)
    hit, status, value = cache.lookup(fn, params)
    if hit:
        if status == STATUS_INFEASIBLE:
            raise InfeasibleError(value)
        return value
    fn_callable = resolve_task_fn(fn)
    try:
        value = fn_callable(**params)
    except InfeasibleError as err:
        cache.store(fn, params, STATUS_INFEASIBLE, str(err))
        raise
    cache.store(fn, params, STATUS_OK, value)
    return value
