"""DVFS governors: EPRONS-Server and the paper's baselines."""

from .base import Governor, QueueSnapshot, VPGovernor
from .eprons_server import EpronsServerGovernor
from .maxfreq import MaxFrequencyGovernor
from .oracle import OracleGovernor
from .rubik import RubikGovernor, RubikPlusGovernor
from .timetrader import TimeTraderGovernor
from .variants import EpronsNoReorderGovernor

__all__ = [
    "Governor",
    "QueueSnapshot",
    "VPGovernor",
    "EpronsServerGovernor",
    "EpronsNoReorderGovernor",
    "OracleGovernor",
    "RubikGovernor",
    "RubikPlusGovernor",
    "TimeTraderGovernor",
    "MaxFrequencyGovernor",
]
