"""Dense integer indexing of a frozen :class:`Topology`.

Node ids are assigned hosts-first (both groups in their sorted order),
so ``node_id < n_hosts`` iff the node is a host.  Every undirected link
``i`` (in ``topology.links`` order) owns two directed ids: ``2*i`` for
the canonical orientation ``(u, v)`` with ``u <= v`` and ``2*i + 1`` for
the reverse — so ``directed_id // 2`` recovers the undirected link and
parity recovers the orientation.

Shortest-path sets are cached per ordered ``(src, dst)`` pair.  All
shortest paths between two nodes have the same hop count, so a pair's
path set is a rectangular matrix of directed-link ids — which is what
lets the greedy consolidator price every candidate path of a flow in
one vectorized pass.  Enumeration delegates to
:func:`repro.topology.paths.shortest_paths`, i.e. the analytic
pod/core enumeration for fat-tree host pairs and the networkx
all-shortest-paths fallback for generic graphs, preserving the
deterministic leftmost order the heuristic's tie-breaking contract
depends on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..topology.graph import Topology, canonical_link
from ..topology.paths import shortest_paths

__all__ = [
    "PathSet",
    "TopologyIndex",
    "topology_index",
    "clear_index_registry",
]


@dataclass(frozen=True)
class PathSet:
    """All shortest paths of one (src, dst) pair, as index matrices.

    ``n_paths`` may be zero (disconnected generic graphs); every matrix
    is rectangular because all shortest paths share one hop count.
    """

    #: Node-name paths in deterministic (leftmost-first) order — the
    #: exact tuples a :class:`~repro.netsim.network.Routing` stores.
    node_paths: tuple[tuple[str, ...], ...]
    #: Directed link ids, shape ``(n_paths, n_hops)``.
    dlinks: np.ndarray
    #: Undirected link ids (``dlinks // 2``), same shape.
    ulinks: np.ndarray
    #: Node ids of the switches on each path, shape ``(n_paths, n_switches)``.
    switch_nodes: np.ndarray
    #: True where a hop touches a host (access links are reserved at
    #: plain demand, never K-scaled), shape ``(n_paths, n_hops)``.
    host_hop: np.ndarray

    @property
    def n_paths(self) -> int:
        return len(self.node_paths)


class TopologyIndex:
    """Integer-id view of one :class:`Topology` (built once, shared).

    Use :func:`topology_index` to obtain the cached instance for a
    topology rather than constructing directly.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.node_names: tuple[str, ...] = topology.hosts + topology.switches
        self.node_id: dict[str, int] = {n: i for i, n in enumerate(self.node_names)}
        self.n_hosts = len(topology.hosts)
        self.n_nodes = len(self.node_names)
        self.is_switch_node = np.zeros(self.n_nodes, dtype=bool)
        self.is_switch_node[self.n_hosts :] = True

        self.ulink_names: tuple[tuple[str, str], ...] = topology.links
        self.n_ulinks = len(self.ulink_names)
        self.n_dlinks = 2 * self.n_ulinks
        self.ulink_id: dict[tuple[str, str], int] = {}
        self.dlink_id: dict[tuple[str, str], int] = {}
        self.dlink_capacity = np.empty(self.n_dlinks, dtype=float)
        self.dlink_touches_host = np.zeros(self.n_dlinks, dtype=bool)
        for i, (u, v) in enumerate(self.ulink_names):
            self.ulink_id[(u, v)] = i
            self.dlink_id[(u, v)] = 2 * i
            self.dlink_id[(v, u)] = 2 * i + 1
            cap = topology.capacity(u, v)
            self.dlink_capacity[2 * i] = cap
            self.dlink_capacity[2 * i + 1] = cap
            if topology.is_host(u) or topology.is_host(v):
                self.dlink_touches_host[2 * i] = True
                self.dlink_touches_host[2 * i + 1] = True

        self._path_sets: dict[tuple[str, str], PathSet] = {}

    # -- name <-> id helpers ---------------------------------------------------

    def dlink_name(self, dlid: int) -> tuple[str, str]:
        """The (tail, head) node names of a directed link id."""
        u, v = self.ulink_names[dlid // 2]
        return (u, v) if dlid % 2 == 0 else (v, u)

    def switch_names(self, node_ids) -> list[str]:
        return [self.node_names[i] for i in node_ids]

    # -- path sets -------------------------------------------------------------

    def path_set(self, src: str, dst: str) -> PathSet:
        """The (cached) shortest-path set for one ordered pair."""
        key = (src, dst)
        ps = self._path_sets.get(key)
        if ps is None:
            ps = self._build_path_set(src, dst)
            self._path_sets[key] = ps
        return ps

    def _build_path_set(self, src: str, dst: str) -> PathSet:
        paths = shortest_paths(self.topology, src, dst)
        if not paths:
            empty_i = np.empty((0, 0), dtype=np.intp)
            return PathSet((), empty_i, empty_i, empty_i, np.empty((0, 0), dtype=bool))
        n_hops = len(paths[0]) - 1
        dlinks = np.empty((len(paths), n_hops), dtype=np.intp)
        switch_rows: list[list[int]] = []
        for r, path in enumerate(paths):
            for h, (u, v) in enumerate(zip(path[:-1], path[1:])):
                dlinks[r, h] = self.dlink_id[(u, v)]
            switch_rows.append(
                [self.node_id[n] for n in path if self.topology.is_switch(n)]
            )
        switch_nodes = np.asarray(switch_rows, dtype=np.intp)
        if switch_nodes.size == 0:
            switch_nodes = switch_nodes.reshape(len(paths), 0)
        return PathSet(
            node_paths=tuple(paths),
            dlinks=dlinks,
            ulinks=dlinks // 2,
            switch_nodes=switch_nodes,
            host_hop=self.dlink_touches_host[dlinks],
        )


#: One index per live Topology object; keyed by identity so frozen
#: topologies shared across consolidators / models reuse one index (and
#: its path-set cache) without keeping dead topologies alive.
_TOPO_REFS: "weakref.WeakKeyDictionary[Topology, TopologyIndex]" = weakref.WeakKeyDictionary()

#: Content-fingerprint registry (the ``simfast.shared_table_engine``
#: pattern): distinct Topology objects with identical structure — the
#: common case when benchmarks and sweep tasks rebuild the same
#: fat-tree per run — share one compiled index and its path-set cache
#: instead of re-deriving the dense matrices from scratch.  Bounded,
#: insertion-ordered LRU; entries keep their origin topology alive via
#: ``TopologyIndex.topology``, which is why the bound stays small.
_CONTENT_REGISTRY: dict[str, TopologyIndex] = {}
_MAX_CONTENT_ENTRIES = 8


def topology_index(topology: Topology) -> TopologyIndex:
    """The shared :class:`TopologyIndex` for ``topology``.

    Resolution is two-level: an identity hit is free; otherwise the
    topology's content :meth:`~repro.topology.graph.Topology.fingerprint`
    is looked up in a process-wide registry, so a content-identical
    topology built by another consolidator/benchmark run reuses the
    already-compiled matrices (and every cached path set).  Only on a
    genuinely new structure is an index built.
    """
    idx = _TOPO_REFS.get(topology)
    if idx is None:
        key = topology.fingerprint()
        idx = _CONTENT_REGISTRY.pop(key, None)
        if idx is None:
            idx = TopologyIndex(topology)
            while len(_CONTENT_REGISTRY) >= _MAX_CONTENT_ENTRIES:
                del _CONTENT_REGISTRY[next(iter(_CONTENT_REGISTRY))]
        _CONTENT_REGISTRY[key] = idx
        _TOPO_REFS[topology] = idx
    return idx


def clear_index_registry() -> None:
    """Drop the content-keyed index registry (tests / memory pressure).

    Identity-keyed entries are weak and clear themselves; live
    topologies re-register on the next :func:`topology_index` call.
    """
    _CONTENT_REGISTRY.clear()
