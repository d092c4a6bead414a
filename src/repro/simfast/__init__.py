"""Server-simulation fast path: tabulated VP decisions and the lockstep DES.

The server-side twin of :mod:`repro.netfast`.  ``simfast`` turns the
governor decision loop — the dominant cost of every Fig. 12 point and
joint sweep — into table lookups:

* :class:`VPTableEngine` precomputes CCDF-at-budget rows per
  (head offset, fold count) so one decision is a single vectorized
  gather over the whole queue at *all* ladder frequencies at once;
* :func:`shared_table_engine` shares the tables process-wide so warm
  sweep workers never rebuild them;
* :func:`run_multipoint_simulation`, the lockstep engine, runs each
  point it is given through one per-core event loop over plain Python
  floats, bit-identical per point to the scalar simulator.

Every point the lockstep engine can represent runs on it; that
includes TimeTrader, whose 5 s timer and completion window live in the
per-core loop.  The scalar loop
(:func:`repro.sim.runner.run_server_simulation`) keeps the clairvoyant
oracle, sleep models and JSQ dispatch, and decides VP governors there
from queue snapshots.  The per-request mixture
evaluation the tables replace is the test oracle in
``tests/oracles/server.py``; ``tests/test_simfast_equivalence.py``
holds production to it.
"""

from .multipoint import MultipointPoint, run_multipoint_simulation
from .tables import VPTableEngine, clear_shared_engines, shared_table_engine

__all__ = [
    "MultipointPoint",
    "run_multipoint_simulation",
    "VPTableEngine",
    "shared_table_engine",
    "clear_shared_engines",
]
