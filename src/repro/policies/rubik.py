"""Rubik and Rubik+ baselines [10].

Rubik (MICRO'15) picks, at every arrival/departure instance, the lowest
frequency at which *every* queued request's deadline-violation
probability stays within the SLA — i.e. it constrains the **maximum**
VP (``vp_mode = "max"``).  The frequency is therefore dictated by the
single limiting request, and everything else finishes early (the
inefficiency Fig. 4 illustrates).  If even ``f_max`` cannot hold every
request within the SLA the core runs flat out — the least-bad option
(Rubik does the same).

* **Rubik** is network-oblivious: it assumes the fixed server budget
  (``network_aware = False`` — the simulator gives it
  ``arrival + server_budget`` deadlines).
* **Rubik+** is the paper's network-aware variant built for a fair
  comparison: identical policy, but the per-request measured network
  slack is folded into the deadlines it sees.

The selection logic lives in :class:`~repro.policies.base.VPGovernor`.
"""

from __future__ import annotations

from .base import VPGovernor

__all__ = ["RubikGovernor", "RubikPlusGovernor"]


class RubikGovernor(VPGovernor):
    """Max-VP (limiting request) frequency selection; network-oblivious."""

    name = "rubik"
    network_aware = False
    reorders_queue = False
    vp_mode = "max"


class RubikPlusGovernor(RubikGovernor):
    """Rubik with per-request network slack folded into deadlines."""

    name = "rubik+"
    network_aware = True
