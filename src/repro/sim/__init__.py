"""Server-simulation harness: run config and result, the one-point DES
call, and the event engine the packet-level network simulator uses."""

from .engine import EventHandle, EventLoop
from .runner import (
    ServerSimConfig,
    ServerSimResult,
    constant_latency_sampler,
    run_server_simulation,
)

__all__ = [
    "EventLoop",
    "EventHandle",
    "ServerSimConfig",
    "ServerSimResult",
    "run_server_simulation",
    "constant_latency_sampler",
]
