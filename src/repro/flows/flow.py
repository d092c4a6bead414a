"""Flow model.

The paper's DCN carries two flow classes (Section II):

* **latency-sensitive** query traffic — the request/reply "mice" of the
  partition–aggregation search application, small bandwidth demands but
  strict deadlines;
* **latency-tolerant** background "elephant" flows — bulk transfers
  with only a bandwidth requirement.

Latency-aware consolidation inflates the *reserved* bandwidth of
latency-sensitive flows by the scale factor ``K`` (their actual data
rate is unchanged); latency-tolerant flows are reserved at their
predicted demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = ["Flow", "FlowClass"]


class FlowClass:
    """Flow classes, per Section II of the paper."""

    LATENCY_SENSITIVE = "latency_sensitive"
    LATENCY_TOLERANT = "latency_tolerant"

    ALL = frozenset({LATENCY_SENSITIVE, LATENCY_TOLERANT})


@dataclass(frozen=True)
class Flow:
    """One unidirectional flow between two hosts.

    Parameters
    ----------
    flow_id:
        Unique identifier (used to key routing decisions).
    src, dst:
        Host node names; must differ.
    demand_bps:
        Predicted bandwidth demand in bit/s (already including the 90th
        percentile prediction; see :mod:`repro.flows.prediction`).
    flow_class:
        :class:`FlowClass` value.
    deadline_s:
        Network-latency deadline in seconds.  Only meaningful for
        latency-sensitive flows; ``None`` for latency-tolerant ones.
    """

    flow_id: str
    src: str
    dst: str
    demand_bps: float
    flow_class: str = FlowClass.LATENCY_SENSITIVE
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.flow_id:
            raise ConfigurationError("flow_id must be non-empty")
        if self.src == self.dst:
            raise ConfigurationError(f"flow {self.flow_id!r}: src == dst ({self.src!r})")
        if not math.isfinite(self.demand_bps) or self.demand_bps <= 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: demand must be positive and finite, "
                f"got {self.demand_bps}"
            )
        if self.flow_class not in FlowClass.ALL:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: invalid class {self.flow_class!r}"
            )
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ConfigurationError(
                f"flow {self.flow_id!r}: deadline must be positive and finite, "
                f"got {self.deadline_s}"
            )
        if self.flow_class == FlowClass.LATENCY_TOLERANT and self.deadline_s is not None:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: latency-tolerant flows have no deadline"
            )

    @property
    def is_latency_sensitive(self) -> bool:
        return self.flow_class == FlowClass.LATENCY_SENSITIVE

    def reserved_bps(self, scale_factor: float) -> float:
        """Bandwidth reserved on links for this flow at scale factor ``K``.

        Latency-sensitive flows reserve ``K * demand`` (Section II);
        latency-tolerant flows reserve their plain demand.
        """
        if scale_factor < 1.0:
            raise ConfigurationError(f"scale factor must be >= 1, got {scale_factor}")
        if self.is_latency_sensitive:
            return scale_factor * self.demand_bps
        return self.demand_bps

    def with_demand(self, demand_bps: float) -> "Flow":
        """A copy of this flow with an updated demand prediction."""
        return replace(self, demand_bps=demand_bps)


def copies_with_demands(flows, demands) -> list[Flow]:
    """``flow.with_demand(d)`` for each pair, for demands the caller has
    already checked positive and finite.

    A flow whose demand is unchanged (``d == flow.demand_bps``) is
    returned itself: :class:`Flow` is frozen, so a copy equal in every
    field could never behave differently, and a steady epoch re-predicts
    few demands.  Every other field comes from a flow that passed
    ``__post_init__``, so the copies skip it: this is the bulk path of
    :meth:`~repro.flows.traffic.TrafficSet.with_demands`.  Fields are
    set one by one, as the generated ``__init__`` sets them, not through
    ``__dict__``: touching that builds a per-flow dict, which slows
    every later read of the flow and doubles the garbage collector's
    allocation count.
    """
    new, set_field = object.__new__, object.__setattr__
    out = []
    for flow, demand in zip(flows, demands):
        if demand == flow.demand_bps:
            out.append(flow)
            continue
        copy = new(Flow)
        set_field(copy, "flow_id", flow.flow_id)
        set_field(copy, "src", flow.src)
        set_field(copy, "dst", flow.dst)
        set_field(copy, "demand_bps", demand)
        set_field(copy, "flow_class", flow.flow_class)
        set_field(copy, "deadline_s", flow.deadline_s)
        out.append(copy)
    return out
