"""Pod-sharded parallel full-solve consolidation (``engine="sharded"``).

The delta engine (PR 6) made *churn* epochs churn-proportional, but
every rung of its fallback ladder — cold start, drift/churn bound,
rollback, fault repair, MILP invalidation — still pays the serial full
FFD solve, which sets the control plane's p99 epoch decision time.
This module parallelizes the full solve by exploiting fat-tree
regularity, GreenDCN-style:

**Core-group ownership.**  Every switch-to-switch link of a fat-tree
shortest path belongs to exactly one core group ``g``: an inter-pod
path through a group-``g`` core uses ``e→a_g``, ``a_g→c_{g,i}``,
``c_{g,i}→a'_g`` and ``a'_g→e'`` links only.  Edge switches are
baseline-active (host attachment), so restricting a shard to a set of
core groups makes shards fully disjoint on switch-tier links *and* on
activation state.  Only host access links are shared — and host-hop
reservations are path-independent (every path of a flow crosses the
same two access links), so host feasibility is pre-validated exactly,
in global FFD order, before any shard runs.

**The sharded solve** (``shards = S > 1``):

1. *Host pre-pass*: walk all flows in FFD order charging only their two
   access links; flows that would overflow are *spilled* to the rescue
   phase (nothing is charged for them).
2. *Phase A — inter-pod slices*: inter-pod flows are dealt round-robin
   (in FFD order) across ``S`` slices; slice ``s`` may only use core
   groups ``{g : g mod S == s}``.  Slices run in parallel from the
   baseline state, enumerating and pricing only their ``(k/2)²/S``
   candidate paths per pair.
3. *Canonical merge*: every shard's placements are replayed onto the
   parent state in **global FFD order**.  Per directed link the replay
   performs the exact subtraction chain the owning shard performed
   locally (shard flow lists are order-preserving subsequences of the
   global order), so merged residuals are bit-identical to shard
   residuals on shard-exclusive links, and host-link residuals can only
   sit *above* the pre-pass guarantee (stranded flows drop out of the
   chain; float subtraction is monotone).
4. *Phase B — pod shards*: same-pod flows partition by pod and run in
   parallel seeded from the merged phase-A state, with full agg
   diversity inside the pod.  Pods are mutually link- and
   activation-disjoint below the core tier.
5. *Rescue*: pre-pass spills and shard-stranded flows are placed
   sequentially against the merged state with full path diversity; a
   rescue failure strands the flow into the outer restart/priority
   ladder exactly like the indexed engine.

The partition is a pure function of the ordered flow list and the merge
order is global, so results are identical at **any** worker count
(``shard_jobs`` only changes wall-clock).  ``shards=1`` bypasses
partitioning entirely and runs the global FFD order through the
:class:`~repro.netfast.batchpack.BatchPacker` kernel, which is
bit-identical to ``engine="indexed"`` — the contract
``tests/test_sharded_consolidation.py`` and ``bench_control``'s digest
assert pin.

Multi-shard mode trades a documented, bounded objective drift (shards
price activations against their local view; intra-pod flows place after
the inter-pod phase) for parallelism — :data:`SHARDED_DRIFT_BOUND` is
the contract, checked by the property suite and re-measured by
``bench_control``, and every solve reports :class:`ShardedStats`
(delta-style drift/phase accounting) on the consolidator.

Pool workers enumerate path sets themselves, with a
core-group-restricted fast path, and keep them in a per-worker cache
across epochs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..netfast import PackingState, topology_index
from ..netfast.batchpack import BatchPacker
from ..netsim.network import Routing
from ..topology.fattree import FatTree
from ..topology.graph import ActiveSubnet

__all__ = ["ShardedStats", "pack_sharded", "shutdown_shard_pool", "SHARDED_DRIFT_BOUND"]

#: Documented objective-drift contract for multi-shard solves: the
#: sharded objective (network watts) stays within this fraction above
#: the serial indexed solve on the same instance.  Property-tested on
#: random traffic and re-measured by ``bench_control``.
SHARDED_DRIFT_BOUND = 0.5


@dataclass(frozen=True)
class ShardedStats:
    """Per-solve telemetry for one sharded packing attempt."""

    n_shards: int
    jobs: int
    n_flows: int
    n_interpod: int
    n_intrapod: int
    n_spilled: int
    n_rescued: int
    partition_s: float
    phase_a_s: float
    phase_b_s: float
    merge_s: float
    objective_watts: float


class _RowPaths:
    """A single-row path-set view reconstructed from a shard placement.

    Duck-types the matrix fields the delta engine's warm records need
    (``dlinks`` / ``ulinks`` / ``switch_nodes`` / ``node_paths`` indexed
    at row 0), so sharded full solves can seed :class:`DeltaConsolidator`
    warm state without the parent ever materializing the pair's full
    path set.
    """

    __slots__ = ("dlinks", "ulinks", "switch_nodes", "node_paths")

    def __init__(
        self,
        dlinks_row: np.ndarray,
        switch_row: np.ndarray,
        node_path: tuple[str, ...],
    ):
        self.dlinks = dlinks_row[None, :]
        self.ulinks = self.dlinks // 2
        self.switch_nodes = switch_row[None, :]
        self.node_paths = (node_path,)


class _ShardPaths:
    """Candidate-path matrices for one pair inside one shard."""

    __slots__ = ("dlinks", "ulinks", "switch_nodes", "host_hop", "node_paths")

    def __init__(self, dlinks, switch_nodes, host_hop, node_paths):
        self.dlinks = dlinks
        self.ulinks = dlinks // 2
        self.switch_nodes = switch_nodes
        self.host_hop = host_hop
        self.node_paths = node_paths

    @property
    def n_paths(self) -> int:
        return self.dlinks.shape[0]


def _interpod_sliced(index, ft: FatTree, src: str, dst: str, groups) -> _ShardPaths:
    """Group-restricted inter-pod path matrices, built directly.

    Produces exactly the rows of the full
    :func:`~repro.topology.paths.fat_tree_paths` enumeration whose core
    belongs to ``groups`` (ascending groups, string-sorted cores within
    a group — the same leftmost order), without enumerating the other
    ``(k/2)² · (S-1)/S`` paths.
    """
    e_s = ft.attachment_switch(src)
    e_d = ft.attachment_switch(dst)
    pod_s = ft.pod_of(src)
    pod_d = ft.pod_of(dst)
    dlink_id = index.dlink_id
    node_id = index.node_id
    d_he = dlink_id[(src, e_s)]
    d_eh = dlink_id[(e_d, dst)]
    e_s_id = node_id[e_s]
    e_d_id = node_id[e_d]
    node_paths = []
    dl_rows = []
    sw_rows = []
    for g in groups:
        a_s = ft.agg_name(pod_s, g)
        a_d = ft.agg_name(pod_d, g)
        d_ea = dlink_id[(e_s, a_s)]
        d_ae = dlink_id[(a_d, e_d)]
        a_s_id = node_id[a_s]
        a_d_id = node_id[a_d]
        for core in ft.cores_in_group(g):
            node_paths.append((src, e_s, a_s, core, a_d, e_d, dst))
            dl_rows.append(
                (d_he, d_ea, dlink_id[(a_s, core)], dlink_id[(core, a_d)], d_ae, d_eh)
            )
            sw_rows.append((e_s_id, a_s_id, node_id[core], a_d_id, e_d_id))
    dlinks = np.asarray(dl_rows, dtype=np.intp)
    return _ShardPaths(
        dlinks=dlinks,
        switch_nodes=np.asarray(sw_rows, dtype=np.intp),
        host_hop=index.dlink_touches_host[dlinks],
        node_paths=tuple(node_paths),
    )


#: Per-process cache of shard-sliced path matrices: pool workers
#: persist across epochs, so warm epochs skip path enumeration
#: entirely.  Bounded LRU (dict insertion order).
_PS_CACHE: dict = {}
_PS_CACHE_MAX = 100_000


def _shard_paths(index, ft: FatTree, src: str, dst: str, restriction):
    """The candidate paths one shard prices for one pair (cached)."""
    if restriction is not None and restriction[0] == "groups":
        if ft.pod_of(src) != ft.pod_of(dst):
            key = (ft.k, restriction[1], src, dst)
            ps = _PS_CACHE.get(key)
            if ps is None:
                ps = _interpod_sliced(index, ft, src, dst, restriction[1])
                while len(_PS_CACHE) >= _PS_CACHE_MAX:
                    del _PS_CACHE[next(iter(_PS_CACHE))]
                _PS_CACHE[key] = ps
            return ps
    return index.path_set(src, dst)


def _exclusion_arrays(index, excluded):
    """Dense excluded-device arrays, or None when nothing is excluded."""
    if excluded is None:
        return None
    excl_switches, excl_links = excluded
    if not excl_switches and not excl_links:
        return None
    node_excl = np.zeros(index.n_nodes, dtype=bool)
    for sw in excl_switches:
        node_excl[index.node_id[sw]] = True
    ulink_excl = np.zeros(index.n_ulinks, dtype=bool)
    for link in excl_links:
        ulink_excl[index.ulink_id[link]] = True
    return node_excl, ulink_excl


def _excl_mask(ps, excl) -> np.ndarray | None:
    if excl is None:
        return None
    node_excl, ulink_excl = excl
    mask = ~ulink_excl[ps.ulinks].any(axis=1)
    if ps.switch_nodes.shape[1]:
        mask &= ~node_excl[ps.switch_nodes].any(axis=1)
    return mask


def _pack_shard(
    index,
    state: PackingState,
    flows,
    scale_factor: float,
    restriction,
    sw_delta: float,
    ln_delta: float,
    excluded,
    min_multiplicity: int,
):
    """Place ``flows`` (FFD-ordered) on ``state`` under ``restriction``.

    Returns ``(placements, stranded)``: placements are self-contained
    ``(flow_id, dlinks_row, switch_row, node_path)`` tuples in placement
    order — everything the parent needs to replay the placement without
    building the pair's path set — and stranded flow ids are left for
    the rescue phase.  Deterministic: a pure function of its inputs.
    """
    ft = index.topology
    packer = BatchPacker(state, sw_delta, ln_delta, min_multiplicity=min_multiplicity)
    excl = _exclusion_arrays(index, excluded)
    counts = Counter(
        (f.src, f.dst, f.demand_bps, f.reserved_bps(scale_factor)) for f in flows
    )
    cache: dict = {}
    placements: list[tuple] = []
    stranded: list[str] = []
    for flow in flows:
        pair = (flow.src, flow.dst)
        entry = cache.get(pair)
        if entry is None:
            ps = _shard_paths(index, ft, *pair, restriction)
            entry = (ps, _excl_mask(ps, excl))
            cache[pair] = entry
        ps, mask = entry
        if ps.n_paths == 0:
            stranded.append(flow.flow_id)
            continue
        reserved = flow.reserved_bps(scale_factor)
        reservations = np.where(ps.host_hop, flow.demand_bps, reserved)
        key = (flow.src, flow.dst, flow.demand_bps, reserved)
        picked = packer.evaluate(key, ps, reservations, mask, counts[key])
        if picked is None:
            stranded.append(flow.flow_id)
            continue
        row, slack_row = picked
        packer.place(ps, row, slack_row)
        placements.append(
            (
                flow.flow_id,
                tuple(int(d) for d in ps.dlinks[row]),
                tuple(int(s) for s in ps.switch_nodes[row]),
                ps.node_paths[row],
            )
        )
    return placements, stranded


# -- worker-process entry ------------------------------------------------------

#: Per-worker topology cache: rebuilding a k=32 fat tree per shard call
#: would dwarf the packing itself.
_WORKER_TOPO: dict = {}


def _shard_worker(payload: dict):
    spec = (payload["k"], payload["link_capacity_bps"])
    ft = _WORKER_TOPO.get(spec)
    if ft is None:
        ft = FatTree(*spec)
        _WORKER_TOPO[spec] = ft
    index = topology_index(ft)
    state = PackingState(index, payload["safety_margin_bps"])
    seed = payload["seed_state"]
    if seed is not None:
        state.residual[:] = seed[0]
        state.switch_active[:] = seed[1]
        state.ulink_active[:] = seed[2]
    return _pack_shard(
        index,
        state,
        payload["flows"],
        payload["scale_factor"],
        payload["restriction"],
        payload["sw_delta"],
        payload["ln_delta"],
        payload["excluded"],
        payload["min_multiplicity"],
    )


_POOL = None
_POOL_JOBS = None


def _shard_pool(jobs: int):
    """Lazy persistent worker pool (kept across epochs; worker path
    caches are the point).  Recreated only when ``jobs`` changes."""
    global _POOL, _POOL_JOBS
    if _POOL is not None and _POOL_JOBS == jobs:
        return _POOL
    shutdown_shard_pool()
    import atexit
    from concurrent.futures import ProcessPoolExecutor

    _POOL = ProcessPoolExecutor(max_workers=jobs)
    _POOL_JOBS = jobs
    atexit.register(shutdown_shard_pool)
    return _POOL


def shutdown_shard_pool() -> None:
    """Tear down the persistent shard worker pool (tests / shutdown)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = None
    _POOL_JOBS = None


# -- the sharded solve ---------------------------------------------------------


def _run_shards(cons, shard_inputs, seed_state, jobs, scale_factor, sw_delta, ln_delta, excluded):
    """Run shards in parallel (or in-process), preserving shard order."""
    if jobs > 1 and len(shard_inputs) > 1:
        ft = cons.topology
        payloads = [
            {
                "k": ft.k,
                "link_capacity_bps": ft.capacity(*next(iter(ft.links))),
                "safety_margin_bps": cons.safety_margin_bps,
                "flows": flows,
                "scale_factor": scale_factor,
                "restriction": restriction,
                "sw_delta": sw_delta,
                "ln_delta": ln_delta,
                "excluded": excluded,
                "seed_state": seed_state,
                "min_multiplicity": cons.shard_min_multiplicity,
            }
            for restriction, flows in shard_inputs
        ]
        pool = _shard_pool(jobs)
        return list(pool.map(_shard_worker, payloads))
    index = topology_index(cons.topology)
    out = []
    for restriction, flows in shard_inputs:
        state = PackingState(index, cons.safety_margin_bps)
        if seed_state is not None:
            state.residual[:] = seed_state[0]
            state.switch_active[:] = seed_state[1]
            state.ulink_active[:] = seed_state[2]
        out.append(
            _pack_shard(
                index, state, flows, scale_factor, restriction,
                sw_delta, ln_delta, excluded, cons.shard_min_multiplicity,
            )
        )
    return out


def pack_sharded(cons, traffic, scale_factor, attempt, priority, excluded):
    """One sharded packing attempt for :class:`GreedyConsolidator`.

    Called from ``GreedyConsolidator._pack_once`` with the same contract
    as the indexed/reference engines: returns a
    :class:`~repro.consolidation.base.ConsolidationResult` or raises the
    internal stranded-flow signal so the outer restart/priority ladder
    (and best-effort scale reduction) applies unchanged.
    """
    from .base import ConsolidationResult
    from .heuristic import _stranded

    topo = cons.topology
    if not isinstance(topo, FatTree):
        raise ConfigurationError(
            "engine='sharded' requires a FatTree topology "
            f"(got {type(topo).__name__}); use engine='indexed'"
        )
    if cons.allowed_subnet is not None:
        raise ConfigurationError(
            "engine='sharded' does not support allowed_subnet routing; "
            "use engine='indexed'"
        )

    t0 = time.perf_counter()
    index = topology_index(topo)
    if cons._state is None:
        cons._state = PackingState(index, cons.safety_margin_bps)
    else:
        cons._state.reset()
    state = cons._state
    sw_delta, ln_delta = cons._activation_deltas()
    log = cons._placement_log
    if log is not None:
        log.clear()

    ordered = cons._ordered_flows(traffic, scale_factor, attempt, priority)
    n_shards = max(1, min(cons.shards, topo.n_core_groups))
    jobs = cons.shard_jobs if cons.shard_jobs is not None else n_shards
    paths: dict[str, tuple[str, ...]] = {}

    if n_shards <= 1:
        stats = _pack_single(
            cons, index, state, ordered, scale_factor, excluded,
            sw_delta, ln_delta, paths, log, t0,
        )
    else:
        stats = _pack_multi(
            cons, index, state, ordered, scale_factor, excluded,
            sw_delta, ln_delta, paths, log, n_shards, jobs, t0,
        )

    subnet = ActiveSubnet(topo, state.active_switch_names(), state.active_link_names())
    objective = cons._network_power(subnet)
    cons.last_sharded_stats = replace(stats, objective_watts=objective)
    return ConsolidationResult(
        routing=Routing(paths),
        subnet=subnet,
        scale_factor=scale_factor,
        objective_watts=objective,
        solver="heuristic",
    )


def _pack_single(
    cons, index, state, ordered, scale_factor, excluded,
    sw_delta, ln_delta, paths, log, t0,
) -> ShardedStats:
    """``shards=1``: the global FFD order through the batch kernel.

    Contractually bit-identical to ``engine="indexed"`` — full path
    diversity, same order, exact kernel, strand at the first
    unplaceable flow.
    """
    from .heuristic import _stranded

    packer = BatchPacker(
        state, sw_delta, ln_delta, min_multiplicity=cons.shard_min_multiplicity
    )
    excl = _exclusion_arrays(index, excluded)
    counts = Counter(
        (f.src, f.dst, f.demand_bps, f.reserved_bps(scale_factor)) for f in ordered
    )
    mask_cache: dict = {}
    for flow in ordered:
        ps, allowed = cons._pair(flow.src, flow.dst)
        if ps.n_paths == 0:
            raise _stranded(flow, scale_factor)
        if excl is not None:
            pair = (flow.src, flow.dst)
            surviving = mask_cache.get(pair)
            if surviving is None:
                surviving = _excl_mask(ps, excl)
                mask_cache[pair] = surviving
            allowed = surviving if allowed is None else (allowed & surviving)
        reserved = flow.reserved_bps(scale_factor)
        reservations = np.where(ps.host_hop, flow.demand_bps, reserved)
        key = (flow.src, flow.dst, flow.demand_bps, reserved)
        picked = packer.evaluate(key, ps, reservations, allowed, counts[key])
        if picked is None:
            raise _stranded(flow, scale_factor)
        row, slack_row = picked
        packer.place(ps, row, slack_row)
        paths[flow.flow_id] = ps.node_paths[row]
        if log is not None:
            log[flow.flow_id] = (flow, ps, row, reservations[row].copy())
    return ShardedStats(
        n_shards=1, jobs=1, n_flows=len(ordered), n_interpod=0, n_intrapod=0,
        n_spilled=0, n_rescued=0, partition_s=0.0,
        phase_a_s=time.perf_counter() - t0, phase_b_s=0.0, merge_s=0.0,
        objective_watts=0.0,
    )


def _pack_multi(
    cons, index, state, ordered, scale_factor, excluded,
    sw_delta, ln_delta, paths, log, n_shards, jobs, t0,
) -> ShardedStats:
    from .heuristic import _stranded

    topo = cons.topology
    flows_by_id = {f.flow_id: f for f in ordered}
    order_pos = {f.flow_id: i for i, f in enumerate(ordered)}
    touches_host = index.dlink_touches_host

    def commit(placement):
        """Replay one shard placement onto the merged parent state."""
        fid, dl_row, sw_row, node_path = placement
        flow = flows_by_id[fid]
        dl = np.asarray(dl_row, dtype=np.intp)
        sw = np.asarray(sw_row, dtype=np.intp)
        reservations = np.where(
            touches_host[dl], flow.demand_bps, flow.reserved_bps(scale_factor)
        )
        state.residual[dl] -= reservations
        state.switch_active[sw] = True
        state.ulink_active[dl // 2] = True
        paths[fid] = node_path
        if log is not None:
            log[fid] = (flow, _RowPaths(dl, sw, node_path), 0, reservations)

    # -- partition + host-link pre-pass (global FFD order) ------------------
    host_res = state.residual.copy()
    spilled: list = []
    interpod: list = []
    intrapod: dict[int, list] = {}
    for flow in ordered:
        d_up = index.dlink_id[(flow.src, topo.attachment_switch(flow.src))]
        d_dn = index.dlink_id[(topo.attachment_switch(flow.dst), flow.dst)]
        r_up = host_res[d_up] - flow.demand_bps
        r_dn = host_res[d_dn] - flow.demand_bps
        if r_up < 0.0 or r_dn < 0.0:
            spilled.append(flow)
            continue
        host_res[d_up] = r_up
        host_res[d_dn] = r_dn
        pod_s = topo.pod_of(flow.src)
        if pod_s == topo.pod_of(flow.dst):
            intrapod.setdefault(pod_s, []).append(flow)
        else:
            interpod.append(flow)
    t_part = time.perf_counter()

    # -- phase A: inter-pod slices over disjoint core-group sets ------------
    group_sets = [
        tuple(g for g in range(topo.n_core_groups) if g % n_shards == s)
        for s in range(n_shards)
    ]
    slice_inputs = [
        (("groups", group_sets[s]), interpod[s::n_shards])
        for s in range(n_shards)
        if interpod[s::n_shards]
    ]
    results_a = _run_shards(
        cons, slice_inputs, None, jobs, scale_factor, sw_delta, ln_delta, excluded
    )
    t_a = time.perf_counter()

    # -- canonical merge A (global FFD order) -------------------------------
    stranded_ids: list[str] = []
    placements: list[tuple] = []
    for placed, stranded in results_a:
        placements.extend(placed)
        stranded_ids.extend(stranded)
    placements.sort(key=lambda p: order_pos[p[0]])
    for placement in placements:
        commit(placement)
    t_merge_a = time.perf_counter()

    # -- phase B: pod shards seeded from the merged phase-A state -----------
    pod_inputs = [(("pod", pod), flows) for pod, flows in sorted(intrapod.items())]
    seed = (
        (state.residual.copy(), state.switch_active.copy(), state.ulink_active.copy())
        if pod_inputs
        else None
    )
    results_b = _run_shards(
        cons, pod_inputs, seed, jobs, scale_factor, sw_delta, ln_delta, excluded
    )
    t_b = time.perf_counter()

    placements = []
    for placed, stranded in results_b:
        placements.extend(placed)
        stranded_ids.extend(stranded)
    placements.sort(key=lambda p: order_pos[p[0]])
    for placement in placements:
        commit(placement)

    # -- rescue: spills + shard strandings, full path diversity -------------
    to_rescue = spilled + [flows_by_id[fid] for fid in stranded_ids]
    to_rescue.sort(key=lambda f: order_pos[f.flow_id])
    masker = cons._exclusion_masker(excluded)
    for flow in to_rescue:
        ps, allowed = cons._pair(flow.src, flow.dst)
        if ps.n_paths == 0:
            raise _stranded(flow, scale_factor)
        if masker is not None:
            surviving = masker((flow.src, flow.dst), ps)
            allowed = surviving if allowed is None else (allowed & surviving)
        reservations = np.where(
            ps.host_hop, flow.demand_bps, flow.reserved_bps(scale_factor)
        )
        picked = state.evaluate(ps, reservations, sw_delta, ln_delta, allowed)
        if picked is None:
            raise _stranded(flow, scale_factor)
        row, slack_row = picked
        state.place(ps, row, slack_row)
        paths[flow.flow_id] = ps.node_paths[row]
        if log is not None:
            log[flow.flow_id] = (flow, ps, row, reservations[row].copy())
    t_end = time.perf_counter()

    return ShardedStats(
        n_shards=n_shards,
        jobs=jobs,
        n_flows=len(ordered),
        n_interpod=len(interpod),
        n_intrapod=sum(len(v) for v in intrapod.values()),
        n_spilled=len(spilled),
        n_rescued=len(to_rescue),
        partition_s=t_part - t0,
        phase_a_s=t_a - t_part,
        phase_b_s=t_b - t_merge_a,
        merge_s=(t_merge_a - t_a) + (t_end - t_b),
        objective_watts=0.0,
    )
