"""Pure helpers of the benchmark: percentiles, spreads, span self time,
digests and failure counting.  No imports from the program under test,
so the quick tests run without it."""

from __future__ import annotations

import hashlib
import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` of ``n``
    samples strictly above it: ``100 * (n - 10) / n``.

    Raises ``ValueError`` when ``n`` is too small to have such a tail.
    """
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"{n} samples leave no tail with {TAIL_MIN_BEYOND} beyond it")
    return 100.0 * (n - TAIL_MIN_BEYOND) / n


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (NumPy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_value(values) -> tuple[float, float]:
    """``(percentile, value)`` of the tail rule applied to ``values``."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def spread(values) -> dict:
    """Median, quartiles and the quartile distance as a share of the
    median, with the quartiles of ``statistics.quantiles(n=4)``."""
    vals = list(values)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "n": len(vals),
    }


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or ``-1``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end
        )
        out.append((end - start) - covered)
    return out


def digest(obj) -> str:
    """SHA-256 of ``repr(obj)``; callers pass canonical (sorted) data
    whose floats print with every digit."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def count_failures(statuses) -> tuple[int, int]:
    """``(attempted, failed)`` over operation statuses.

    ``"error"`` and ``"timeout"`` are failures; ``"ok"`` and
    ``"infeasible"`` (an operating point the optimizer legitimately
    rejects) are answers.
    """
    statuses = list(statuses)
    failed = sum(1 for s in statuses if s in ("error", "timeout"))
    return len(statuses), failed


def check_digests(digests, golden: str | None) -> list[str]:
    """Mismatch messages: every repeat must agree with the others and,
    when a golden digest is recorded for the seed, with it."""
    problems = []
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        problems.append(f"repeats disagree: {len(distinct)} distinct digests {distinct}")
    if golden is not None:
        bad = [d for d in distinct if d != golden]
        if bad:
            problems.append(f"digest {bad} does not match golden {golden}")
    return problems
