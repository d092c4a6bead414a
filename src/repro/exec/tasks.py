"""The sweep task model.

A :class:`SweepTask` names a registered task function plus a fully
primitive parameter set — everything a worker process needs to rebuild
the experiment point from scratch.  Tasks are picklable, hashable and
canonically serializable, so the same spec always produces the same
cache key and (because task functions are pure functions of their spec)
the same result regardless of execution order or parallelism.

Per-task seeds derive from a base seed plus the task's spec digest via
:class:`numpy.random.SeedSequence` spawning — stable under reordering,
statistically independent across tasks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SweepTask", "canonical_json", "spec_digest", "derive_seed"]


def _canonical(obj):
    """Reduce ``obj`` to JSON-encodable canonical form.

    Supports the primitives experiment specs are built from: scalars,
    strings, sequences, mappings with string keys, and (frozen)
    dataclasses such as :class:`~repro.core.joint.JointSimParams`.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; JSON floats would too, but be explicit.
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k in sorted(obj):
            if not isinstance(k, str):
                raise ConfigurationError(f"spec dict keys must be strings, got {k!r}")
            out[k] = _canonical(obj[k])
        return out
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, **body}
    raise ConfigurationError(
        f"value of type {type(obj).__name__} is not canonicalizable: {obj!r}"
    )


def canonical_json(obj) -> str:
    """Deterministic JSON encoding of a task spec."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def spec_digest(fn: str, params: dict) -> str:
    """Content hash of one task spec (no code salt — see cache.key)."""
    payload = canonical_json({"fn": fn, "params": params})
    return hashlib.sha256(payload.encode()).hexdigest()


def derive_seed(base_seed: int, fn: str, params: dict) -> int:
    """A per-task seed: deterministic in the spec, independent across specs.

    Feeds the spec digest into a :class:`numpy.random.SeedSequence`
    spawned off ``base_seed``, so the seed does not depend on the order
    tasks were created in.
    """
    digest = spec_digest(fn, params)
    words = [int(digest[i : i + 8], 16) for i in range(0, 32, 8)]
    ss = np.random.SeedSequence(entropy=[int(base_seed) & 0xFFFFFFFF, *words])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a registry key plus primitive kwargs.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    tasks hash/compare by content.  ``tag`` is caller-side metadata for
    reassembling results (row labels); it is *not* part of the cache
    identity.
    """

    fn: str
    params: tuple[tuple[str, object], ...]
    tag: object = None

    @classmethod
    def make(cls, fn: str, tag: object = None, **params) -> "SweepTask":
        return cls(fn=fn, params=tuple(sorted(params.items())), tag=tag)

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    @property
    def digest(self) -> str:
        return spec_digest(self.fn, self.kwargs)

    def seed(self, base_seed: int = 0) -> int:
        """Deterministic per-task seed (see :func:`derive_seed`)."""
        return derive_seed(base_seed, self.fn, self.kwargs)

    def __str__(self) -> str:
        head = ", ".join(f"{k}={v!r}" for k, v in self.params[:4])
        more = ", ..." if len(self.params) > 4 else ""
        return f"SweepTask({self.fn}: {head}{more})"
