"""Forwarding-rule and device-state reconfiguration plans.

Step (iii) of the Section-II consolidation procedure: after the
optimizer picks new paths and a new active subnet, the Path & Power
controller must install/remove OpenFlow rules and issue switch/link
power commands.  These dataclasses are the *plan* — the diff between
the current network state and the optimizer's output — so tests and
experiments can assert exactly what would be reconfigured (and how much
churn an epoch causes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.network import Routing
from ..topology.graph import ActiveSubnet

__all__ = ["RuleUpdate", "DeviceCommands", "ReconfigurationPlan", "diff_routings", "diff_subnets"]


@dataclass(frozen=True)
class RuleUpdate:
    """Forwarding-rule churn for one epoch."""

    added: dict[str, tuple[str, ...]] = field(default_factory=dict)
    removed: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rerouted: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = field(default_factory=dict)

    @property
    def n_changes(self) -> int:
        return len(self.added) + len(self.removed) + len(self.rerouted)

    @property
    def is_empty(self) -> bool:
        return self.n_changes == 0


@dataclass(frozen=True)
class DeviceCommands:
    """Switch/link power commands for one epoch."""

    switches_to_on: frozenset[str] = frozenset()
    switches_to_off: frozenset[str] = frozenset()
    links_to_on: frozenset[tuple[str, str]] = frozenset()
    links_to_off: frozenset[tuple[str, str]] = frozenset()

    @property
    def n_commands(self) -> int:
        return (
            len(self.switches_to_on)
            + len(self.switches_to_off)
            + len(self.links_to_on)
            + len(self.links_to_off)
        )

    @property
    def is_empty(self) -> bool:
        return self.n_commands == 0


@dataclass(frozen=True)
class ReconfigurationPlan:
    """One epoch's full reconfiguration: rules plus device commands."""

    rules: RuleUpdate
    devices: DeviceCommands

    @property
    def is_empty(self) -> bool:
        return self.rules.is_empty and self.devices.is_empty


def diff_routings(old: Routing | None, new: Routing) -> RuleUpdate:
    """Compute the forwarding-rule diff between two routings.

    Reads both routings in place: ``added`` and ``rerouted`` follow
    ``new``'s flow order, ``removed`` follows ``old``'s.
    """
    if old is None:
        return RuleUpdate(added=dict(new.items()))
    old_path = old.get
    added, rerouted = {}, {}
    for fid, p in new.items():
        q = old_path(fid)
        if q is None:
            added[fid] = p
        elif q != p:
            rerouted[fid] = (q, p)
    removed = {fid: p for fid, p in old.items() if fid not in new}
    return RuleUpdate(added=added, removed=removed, rerouted=rerouted)


def diff_subnets(old: ActiveSubnet | None, new: ActiveSubnet) -> DeviceCommands:
    """Compute the device power-command diff between two subnets."""
    if old is None:
        return DeviceCommands(
            switches_to_on=frozenset(new.switches_on),
            links_to_on=frozenset(new.links_on),
        )
    return DeviceCommands(
        switches_to_on=frozenset(new.switches_on - old.switches_on),
        switches_to_off=frozenset(old.switches_on - new.switches_on),
        links_to_on=frozenset(new.links_on - old.links_on),
        links_to_off=frozenset(old.links_on - new.links_on),
    )
