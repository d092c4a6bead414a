"""Latency-aware traffic consolidation (EPRONS-Network)."""

from .base import (
    ConsolidationResult,
    Consolidator,
    link_reservation,
    validate_exclusions,
    validate_result,
)
from .delta import DeltaConsolidator, DeltaStats
from .elastictree import ElasticTreeConsolidator
from .heuristic import GreedyConsolidator, route_on_subnet
from .milp import MilpConsolidator
from .repair import LocalRepair, local_repair, stranded_flows

__all__ = [
    "ConsolidationResult",
    "Consolidator",
    "validate_result",
    "validate_exclusions",
    "link_reservation",
    "GreedyConsolidator",
    "DeltaConsolidator",
    "DeltaStats",
    "ElasticTreeConsolidator",
    "route_on_subnet",
    "MilpConsolidator",
    "LocalRepair",
    "local_repair",
    "stranded_flows",
]
