"""Reference check of the active-subnet invariants.

Production :class:`~repro.topology.graph.ActiveSubnet` tests its
invariants by set algebra against sets the :class:`Topology` builds
once, and scans elements only to name a broken invariant.  The function
here is the per-element loop every subnet ran before, kept as the
executable specification (``tests/test_topology_graph.py`` checks that
both accept the same subnets and reject the rest with the same
message).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.topology.graph import Topology, canonical_link

__all__ = ["reference_check_subnet"]


def reference_check_subnet(topo: Topology, switches_on: frozenset, links_on: frozenset) -> None:
    """Raise :class:`ConfigurationError` for the first broken invariant."""
    unknown = switches_on - set(topo.switches)
    if unknown:
        raise ConfigurationError(f"unknown switches in subnet: {sorted(unknown)}")
    unknown_links = links_on - set(topo.links)
    if unknown_links:
        raise ConfigurationError(f"unknown links in subnet: {sorted(unknown_links)}")
    for u, v in links_on:
        for end in (u, v):
            if topo.is_switch(end) and end not in switches_on:
                raise ConfigurationError(f"link ({u!r}, {v!r}) is on but switch {end!r} is off")
    for sw in switches_on:
        links = sorted(canonical_link(sw, nbr) for nbr in topo.graph[sw])
        if not any(link in links_on for link in links):
            raise ConfigurationError(f"switch {sw!r} is on with no active links")
    for host in topo.hosts:
        att = canonical_link(host, topo.attachment_switch(host))
        if att not in links_on:
            raise ConfigurationError(f"host {host!r} attachment link is off")
