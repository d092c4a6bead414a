"""Integer-indexed fast path for the network half of the repository.

The string-keyed :mod:`repro.topology` / :mod:`repro.netsim` /
:mod:`repro.consolidation` APIs are what the experiments and the
controller speak, but at datacenter scale (k=16 fat-tree: 1024 hosts,
thousands of flows, 6-hop paths) per-flow per-hop Python loops over
node-name tuples are the dominant cost of every controller epoch.  This
package compiles a frozen :class:`~repro.topology.graph.Topology` into
dense integer ids and NumPy arrays once, then lets routing, utilization,
latency sampling and greedy packing run as vectorized array operations:

* :class:`TopologyIndex` — dense node / directed-link ids, per-link
  capacity arrays, and lazily cached per-(src, dst) shortest-path sets
  as rectangular link-id matrices (built in closed form from per-index
  switch-layer tables for fat-trees, networkx fallback otherwise);
* :class:`RoutingMatrix` — a CSR flow x directed-link incidence compiled
  from a :class:`~repro.netsim.network.Routing`, turning utilization
  accumulation into one ``np.add.at``;
* :class:`PackingState` — the incremental residual-capacity /
  active-device arrays behind greedy consolidation.

Everything here sits under the existing API: outputs are bit-identical
to the string-keyed reference implementations kept as test oracles in
``tests/oracles/network.py`` (same floating-point operation order, same
activation-cost / -bottleneck / leftmost tie-breaking), which
``tests/test_netfast_equivalence.py`` enforces.
"""

from .index import PathSet, TopologyIndex, clear_index_registry, topology_index
from .packing import PackingState
from .routing import RoutingMatrix

__all__ = [
    "TopologyIndex",
    "PathSet",
    "topology_index",
    "clear_index_registry",
    "RoutingMatrix",
    "PackingState",
]
