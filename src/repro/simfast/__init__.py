"""Server-simulation fast path: tabulated VP decisions and the lockstep DES.

The server-side twin of :mod:`repro.netfast`.  ``simfast`` turns the
governor decision loop — the dominant cost of every Fig. 12 point and
joint sweep — into table lookups:

* :class:`VPTableEngine` precomputes CCDF-at-budget rows per
  (head offset, fold count) so one decision is a single vectorized
  gather over the whole queue at *all* ladder frequencies at once;
* :func:`shared_table_engine` shares the tables process-wide so warm
  sweep workers never rebuild them;
* :func:`run_multipoint_simulation`, the lockstep engine and the
  package's only server DES, runs each point it is given through one
  per-core event loop over plain Python floats.

Every server point runs on it: VP and constant governors, TimeTrader
(whose 5 s timer and completion window live in the per-core loop), the
clairvoyant oracle (asked with queue snapshots) and PowerNap-family
sleep models.  The event-heap loop it was derived from and the
per-request mixture evaluation the tables replace are test oracles in
``tests/oracles/server.py``; ``tests/test_multipoint.py`` and
``tests/test_simfast_equivalence.py`` hold production to them.
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
