"""Server-simulation fast path: tabulated VP decisions + incremental queue state.

The server-side twin of :mod:`repro.netfast`.  ``simfast`` turns the
governor decision loop — the dominant cost of every Fig. 12 point and
joint sweep — into table lookups:

* :class:`VPTableEngine` precomputes CCDF-at-budget rows per
  (head offset, fold count) so one decision is a single vectorized
  gather over the whole queue at *all* ladder frequencies at once;
* :class:`IncrementalEquivalentQueue` mirrors a core's deadline state
  across decisions, replacing per-event snapshot rebuilds;
* :func:`shared_table_engine` shares the tables process-wide so warm
  sweep workers never rebuild them;
* :func:`run_multipoint_simulation` advances a whole grid of points
  that share a workload trace in lockstep, bit-identical per point to
  the one-point simulator.

The call shape picks the engine: a single point runs on the tabulated
incremental engine (:func:`repro.sim.runner.run_server_simulation`), a
grid on the lockstep one.  The per-request mixture evaluation both
replace is the test oracle in ``tests/oracles/server.py``;
``tests/test_simfast_equivalence.py`` holds production to it.
"""

from .equivalent import IncrementalEquivalentQueue
from .multipoint import MultipointPoint, run_multipoint_simulation
from .tables import VPTableEngine, clear_shared_engines, shared_table_engine

__all__ = [
    "IncrementalEquivalentQueue",
    "MultipointPoint",
    "run_multipoint_simulation",
    "VPTableEngine",
    "shared_table_engine",
    "clear_shared_engines",
]
