"""Reference forwarding-rule diff.

Production :func:`~repro.control.rules.diff_routings` reads both
:class:`~repro.netsim.network.Routing` mappings in place.  The function
here is the version it replaced, kept only as the executable
specification (``tests/test_control.py`` compares the two): it copies
both routings into fresh dicts and scans the copies.
"""

from __future__ import annotations

from repro.control.rules import RuleUpdate
from repro.netsim.network import Routing

__all__ = ["reference_diff_routings"]


def reference_diff_routings(old: Routing | None, new: Routing) -> RuleUpdate:
    """Compute the forwarding-rule diff between two routings."""
    if old is None:
        return RuleUpdate(added={fid: path for fid, path in new.items()})
    old_paths = dict(old.items())
    new_paths = dict(new.items())
    added = {fid: p for fid, p in new_paths.items() if fid not in old_paths}
    removed = {fid: p for fid, p in old_paths.items() if fid not in new_paths}
    rerouted = {
        fid: (old_paths[fid], p)
        for fid, p in new_paths.items()
        if fid in old_paths and old_paths[fid] != p
    }
    return RuleUpdate(added=added, removed=removed, rerouted=rerouted)
