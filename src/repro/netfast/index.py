"""Dense integer indexing of a frozen :class:`Topology`.

Node ids are assigned hosts-first (both groups in their sorted order),
so ``node_id < n_hosts`` iff the node is a host.  Every undirected link
``i`` (in ``topology.links`` order) owns two directed ids: ``2*i`` for
the canonical orientation ``(u, v)`` with ``u <= v`` and ``2*i + 1`` for
the reverse — so ``directed_id // 2`` recovers the undirected link and
parity recovers the orientation.

Shortest-path sets are cached per ordered ``(src, dst)`` host pair.  All
shortest paths between two nodes have the same hop count, so a pair's
path set is a rectangular matrix of directed-link ids — which is what
lets the greedy consolidator price every candidate path of a flow in
one vectorized pass.  Rows come in the deterministic leftmost order of
:func:`repro.topology.paths.shortest_paths`, which the heuristic's
tie-breaking contract depends on.

Fat-tree host pairs are built in closed form.  A pair's paths follow
from its pod, edge switch and core group alone, so each
:class:`TopologyIndex` over a :class:`~repro.topology.fattree.FatTree`
tabulates the switch-layer node ids and the edge<->aggregation and
aggregation<->core directed-link ids once (:class:`_FatTreeTables`);
a pair's matrices are then its two host-link columns around a
broadcast of those table rows.  Other topologies enumerate with
networkx and translate names to ids.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import ConfigurationError
from ..topology.fattree import FatTree
from ..topology.graph import Topology
from ..topology.paths import shortest_paths

__all__ = [
    "PathSet",
    "TopologyIndex",
    "topology_index",
    "clear_index_registry",
]


#: Bound on a :class:`TopologyIndex`'s validated-path memo: every
#: routed path of a k=48 fat tree's ~1e5 flows fits.
_MAX_ROUTES = 1 << 17


class PathSet:
    """All shortest paths of one (src, dst) pair, as index matrices.

    ``n_paths`` may be zero (disconnected generic graphs); every matrix
    is rectangular because all shortest paths share one hop count.
    Node-name paths are derived on demand (:meth:`node_path`): a
    consolidation reads one row per placed flow, never the whole set.
    """

    __slots__ = ("dlinks", "ulinks", "switch_nodes", "host_hop", "_ends", "_names", "_rows")

    def __init__(self, dlinks, switch_nodes, host_hop, ends, names):
        #: Directed link ids, shape ``(n_paths, n_hops)``.
        self.dlinks: np.ndarray = dlinks
        #: Undirected link ids (``dlinks // 2``), same shape.
        self.ulinks: np.ndarray = dlinks // 2
        #: Node ids of the switches on each path, shape ``(n_paths, n_switches)``.
        self.switch_nodes: np.ndarray = switch_nodes
        #: True where a hop touches a host (access links are reserved at
        #: plain demand, never K-scaled), shape ``(n_paths, n_hops)``.
        self.host_hop: np.ndarray = host_hop
        # Host endpoints (the only non-switch nodes a shortest path can
        # hold: hosts have degree 1) and the index's node names.
        self._ends: tuple[tuple[str, ...], tuple[str, ...]] = ends
        self._names: tuple[str, ...] = names
        self._rows: dict[int, tuple[str, ...]] = {}

    @property
    def n_paths(self) -> int:
        return self.dlinks.shape[0]

    def node_path(self, row: int) -> tuple[str, ...]:
        """Path ``row`` as node names — the exact tuple a
        :class:`~repro.netsim.network.Routing` stores (memoized)."""
        path = self._rows.get(row)
        if path is None:
            head, tail = self._ends
            names = self._names
            path = (*head, *[names[i] for i in self.switch_nodes[row].tolist()], *tail)
            self._rows[row] = path
        return path

    @property
    def node_paths(self) -> tuple[tuple[str, ...], ...]:
        """Every path as node names, in leftmost-first order."""
        return tuple(self.node_path(r) for r in range(self.n_paths))


class _FatTreeTables:
    """Switch-layer node ids and directed-link ids of one fat-tree.

    Edge switches get a dense index ``E = pod * k/2 + i``.  Tables come
    in two column orders, each the leftmost order of
    :func:`~repro.topology.paths.fat_tree_paths` for one pair kind:

    * same-pod paths visit the pod's aggregation switches in *name*
      order (``a0_10`` sorts before ``a0_2``, so not numeric for
      k >= 22): ``*_named`` tables;
    * inter-pod paths visit core groups ``g`` numerically (through each
      pod's aggregation switch ``g``), then the group's cores in name
      order: ``*_grouped`` tables and the ``(pod, g, j)`` agg<->core
      tables.
    """

    def __init__(self, ft: FatTree, node_id: dict, dlink_id: dict):
        half = ft.k // 2
        pods = range(ft.k)
        edges = [ft.edge_name(p, i) for p in pods for i in range(half)]
        edge_index = {name: e for e, name in enumerate(edges)}
        self.half = half
        self.edge_node = [node_id[e] for e in edges]
        self.host_edge = [edge_index[ft.attachment_switch(h)] for h in ft.hosts]
        self.host_up = [dlink_id[(h, edges[e])] for h, e in zip(ft.hosts, self.host_edge)]
        self.host_down = [dlink_id[(edges[e], h)] for h, e in zip(ft.hosts, self.host_edge)]

        def ids(rows, lookup=dlink_id):
            return np.array([[lookup[x] for x in row] for row in rows], dtype=np.intp)

        def edge_links(aggs):
            """(edge->agg, agg->edge) ids per edge switch, over its pod's ``aggs``."""
            pod_aggs = [aggs[e // half] for e in range(len(edges))]
            return (
                ids([[(e, a) for a in row] for e, row in zip(edges, pod_aggs)]),
                ids([[(a, e) for a in row] for e, row in zip(edges, pod_aggs)]),
            )

        named = [ft.agg_switches_in_pod(p) for p in pods]
        self.agg_named = ids(named, node_id)
        self.up_named, self.down_named = edge_links(named)

        grouped = [[ft.agg_name(p, g) for g in range(half)] for p in pods]
        cores = [ft.cores_in_group(g) for g in range(half)]
        self.agg_grouped = ids(grouped, node_id)
        self.core = ids(cores, node_id)
        self.up_grouped, self.down_grouped = edge_links(grouped)
        # (pod, g, j): agg g of the pod <-> core j of group g.
        self.agg_core = np.stack([ids([[(a, c) for c in cores[g]] for g, a in enumerate(row)]) for row in grouped])
        self.core_agg = np.stack([ids([[(c, a) for c in cores[g]] for g, a in enumerate(row)]) for row in grouped])

    def matrices(self, s: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dlinks, switch_nodes)`` of host ids ``s != d``."""
        es, ed = self.host_edge[s], self.host_edge[d]
        up, down = self.host_up[s], self.host_down[d]
        if es == ed:
            return (
                np.array([[up, down]], dtype=np.intp),
                np.array([[self.edge_node[es]]], dtype=np.intp),
            )
        pod_s, pod_d = es // self.half, ed // self.half
        if pod_s == pod_d:
            shape = (self.half,)
            links = (up, self.up_named[es], self.down_named[ed], down)
            switches = (self.edge_node[es], self.agg_named[pod_s], self.edge_node[ed])
        else:
            shape = (self.half, self.half)
            links = (
                up,
                self.up_grouped[es][:, None],
                self.agg_core[pod_s],
                self.core_agg[pod_d],
                self.down_grouped[ed][:, None],
                down,
            )
            switches = (
                self.edge_node[es],
                self.agg_grouped[pod_s][:, None],
                self.core,
                self.agg_grouped[pod_d][:, None],
                self.edge_node[ed],
            )
        return _columns(shape, links), _columns(shape, switches)


def _columns(shape: tuple[int, ...], columns) -> np.ndarray:
    """Broadcast each column over ``shape``; rows flattened C-order."""
    out = np.empty(shape + (len(columns),), dtype=np.intp)
    for c, col in enumerate(columns):
        out[..., c] = col
    return out.reshape(-1, len(columns))


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

        self._fat_tree = (
            _FatTreeTables(topology, self.node_id, self.dlink_id)
            if isinstance(topology, FatTree)
            else None
        )
        self._path_sets: dict[tuple[str, str], PathSet] = {}
        #: Node path -> its directed link ids, for paths already
        #: validated against this topology (:meth:`route_dlinks`).
        self._routes: dict[tuple[str, ...], tuple[int, ...]] = {}

    # -- name <-> id helpers ---------------------------------------------------

    def dlink_name(self, dlid: int) -> tuple[str, str]:
        """The (tail, head) node names of a directed link id."""
        u, v = self.ulink_names[dlid // 2]
        return (u, v) if dlid % 2 == 0 else (v, u)

    def switch_names(self, node_ids) -> list[str]:
        return [self.node_names[i] for i in node_ids]

    # -- routes ----------------------------------------------------------------

    def route_dlinks(self, path: tuple[str, ...]) -> tuple[int, ...] | None:
        """The directed link ids of a node path in hop order, or ``None``
        when a hop is not a link of this topology.

        Valid paths are memoized: routings repeat the same paths epoch
        after epoch, so most compiles are one dict lookup per flow.  The
        memo starts over once it holds :data:`_MAX_ROUTES` paths.
        """
        links = self._routes.get(path)
        if links is None:
            links = tuple(map(self.dlink_id.get, zip(path, path[1:])))
            if None in links:
                return None
            if len(self._routes) >= _MAX_ROUTES:
                self._routes.clear()
            self._routes[path] = links
        return links

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
        if src == dst:
            raise ConfigurationError("source and destination must differ")
        for node in (src, dst):
            if node not in self.node_id:
                raise ConfigurationError(f"{node!r} is not a node of this topology")
        s, d = self.node_id[src], self.node_id[dst]
        ends = (
            (src,) if s < self.n_hosts else (),
            (dst,) if d < self.n_hosts else (),
        )
        if self._fat_tree is not None and ends[0] and ends[1]:
            dlinks, switch_nodes = self._fat_tree.matrices(s, d)
        else:
            dlinks, switch_nodes = self._enumerate(src, dst)
        return PathSet(
            dlinks, switch_nodes, self.dlink_touches_host[dlinks], ends, self.node_names
        )

    def _enumerate(self, src: str, dst: str) -> tuple[np.ndarray, np.ndarray]:
        """Generic fallback: networkx enumeration, names -> ids."""
        paths = shortest_paths(self.topology, src, dst)
        if not paths:
            empty = np.empty((0, 0), dtype=np.intp)
            return empty, empty
        dlinks = np.array(
            [[self.dlink_id[hop] for hop in zip(p[:-1], p[1:])] for p in paths],
            dtype=np.intp,
        )
        switch_nodes = np.array(
            [[self.node_id[n] for n in p if self.topology.is_switch(n)] for p in paths],
            dtype=np.intp,
        )
        return dlinks, switch_nodes


#: One index per live Topology object; keyed by identity so frozen
#: topologies shared across consolidators / models reuse one index (and
#: its path-set cache) without keeping dead topologies alive.  Values
#: are weak too: an index refers to its topology, so a strong value
#: would keep its own key — and every path set — alive forever.  An
#: index lives while a consolidator, model or the content registry
#: holds it.
_TOPO_REFS: "weakref.WeakKeyDictionary[Topology, weakref.ref]" = weakref.WeakKeyDictionary()

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
    ref = _TOPO_REFS.get(topology)
    idx = ref() if ref is not None else None
    if idx is None:
        key = topology.fingerprint()
        idx = _CONTENT_REGISTRY.pop(key, None)
        if idx is None:
            idx = TopologyIndex(topology)
            while len(_CONTENT_REGISTRY) >= _MAX_CONTENT_ENTRIES:
                del _CONTENT_REGISTRY[next(iter(_CONTENT_REGISTRY))]
        _CONTENT_REGISTRY[key] = idx
        _TOPO_REFS[topology] = weakref.ref(idx)
    return idx


def clear_index_registry() -> None:
    """Drop the content-keyed index registry (tests / memory pressure).

    Identity-keyed entries are weak and clear themselves; live
    topologies re-register on the next :func:`topology_index` call.
    """
    _CONTENT_REGISTRY.clear()
