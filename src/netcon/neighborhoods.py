"""Neighborhood moves and the sequence-to-tree rebuild procedures.

NET exchanges one tree edge for a non-tree edge.  SCH is one shift move for
every variant: move one element of the solution's connection sequence to the
start of an earlier group and rebuild; a vertex recovery sequence is the case
of one vertex per group.

Both rebuild procedures resolve shortest-path ties with one shared canonical
rule (walk back from the larger component representative, preferring the
smallest adjacent representative), so rebuilding an internal-transportation
solution from its vertex recovery sequence and from its full pairs connection
sequence yields the same tree.
"""
from __future__ import annotations

import bisect

import numpy as np

from .graph import (
    ContractedGraph,
    DistanceOracle,
    GraphError,
    Network,
    SpanningTree,
    _walk_back,
    cached_oracle,
    spanning_tree_cycle,
)
from .model import (
    IT_VARIANTS,
    EdgeSchedule,
    ProblemInstance,
    pairs_connection_sequence,
    vertex_recovery_sequence,
)
from .solution import Solution, solve_tree

NET = "NET"
SCH = "SCH"
KINDS = (NET, SCH)


def enumerate_edge_exchange(net: Network, tree: SpanningTree):
    """All (add, remove) pairs: non-tree edges ascending, removals in
    cycle-path order."""
    in_tree = set(tree.edge_ids)
    for add in range(net.m):
        if add in in_tree:
            continue
        for remove in spanning_tree_cycle(tree, add):
            yield add, remove


def enumerate_shifts(starts, length: int):
    """Every (j, i) moving the element at position j to the start i of an
    earlier group: j ascending, then the distinct starts i < j, ascending.

    ``starts`` is non-decreasing with one start per group; j's group is the
    last one starting at or before j.  Empty groups share a start, so each
    start is offered once, and a start equal to j would displace nothing.
    A vertex recovery sequence is one vertex per group: ``range(length)``.
    """
    for j in range(length):
        g = bisect.bisect_right(starts, j) - 1
        last = None
        for i in starts[: max(g, 0)]:
            if i < j and i != last:
                last = i
                yield j, i


def apply_shift(order: tuple, j: int, i: int) -> tuple:
    """``order`` with its element at position j moved to position i <= j."""
    return order[:i] + (order[j],) + order[i:j] + order[j + 1 :]


def sequence(inst: ProblemInstance, sched: EdgeSchedule, reduced: bool):
    """(order, group starts) of the schedule's connection sequence: the
    vertex recovery sequence, one vertex per group, for the IT variants; the
    pairs connection sequence (relevant pairs only if ``reduced``) otherwise."""
    if inst.variant in IT_VARIANTS:
        order = vertex_recovery_sequence(inst, sched)
        return order, range(len(order))
    seq = pairs_connection_sequence(inst, sched, reduced)
    return seq.order, seq.group_starts


def rebuild(inst: ProblemInstance, order, oracle: DistanceOracle) -> Solution:
    """A-IT (IT variants) or A-ET from a connection sequence, then ES(T)."""
    if inst.variant in IT_VARIANTS:
        tree = a_it(inst.net, oracle, order)
    else:
        tree = a_et(inst.net, order, oracle)
    return solve_tree(inst, tree)


def a_it(net: Network, oracle: DistanceOracle, order) -> SpanningTree:
    """Grow a depot tree by attaching the first unspanned vertex of ``order``
    via a shortest path to the current tree.

    The path is the one ``a_et`` would choose on the state "tree plus
    singletons": the tree acts as one super-vertex whose id is its smallest
    member ``root``, and the walk starts from the larger of ``v`` and ``root``.
    """
    n = net.n
    dist = oracle.dist
    adjacency = net.adjacency
    in_tree = [False] * n
    in_tree[net.depot] = True
    root = net.depot
    # nearest-tree-vertex distance per vertex
    d_tree = dist[net.depot].copy()
    chosen: set[int] = set()

    def into_tree(x: int):
        """Shortest (length, edge id) from singleton ``x`` into the tree."""
        best = None
        for y, eid, length in adjacency[x]:
            if in_tree[y] and (best is None or (length, eid) < best):
                best = (length, eid)
        return best

    def nbrs(x: int):
        if x == root:  # the tree's neighbors, scanned lazily
            return ((y, *e) for y in range(n) if not in_tree[y] and (e := into_tree(y)))
        singles = [(y, length, eid) for y, eid, length in adjacency[x] if not in_tree[y]]
        entry = into_tree(x)
        if entry:
            bisect.insort(singles, (root, *entry))
        return singles

    for v in order:
        if in_tree[v]:
            continue
        if v > root:
            d = d_tree.tolist()
        else:
            d = np.minimum(dist[v], d_tree[v] + d_tree).tolist()
        path = _walk_back(max(v, root), d, nbrs)
        chosen.update(path)
        for eid in path:
            for x in net.edges[eid][:2]:
                if not in_tree[x]:
                    in_tree[x] = True
                    np.minimum(d_tree, dist[x], out=d_tree)
                    root = min(root, x)
    return SpanningTree.from_edges(net, chosen)


def a_et(net: Network, order, oracle: DistanceOracle | None = None) -> SpanningTree:
    """Join the first unconnected pair of ``order`` via a shortest path in the
    contracted graph, then contract that path; greedy completion if a reduced
    sequence leaves a forest."""
    cg = ContractedGraph(net, oracle if oracle is not None else cached_oracle(net))
    chosen: set[int] = set()
    ptr = 0
    while cg.num_components() > 1:
        pair = None
        while ptr < len(order):
            u, v = order[ptr]
            if cg.find(u) != cg.find(v):
                pair = (u, v)
                break
            ptr += 1
        if pair is None:
            _greedy_join(cg, chosen)
            continue
        path = cg.shortest_path_edges(*pair)
        chosen.update(path)
        for eid in path:
            a, b, _ = net.edges[eid]
            if cg.find(a) != cg.find(b):
                cg.contract_edge(a, b)
    return SpanningTree.from_edges(net, chosen)


def _greedy_join(cg: ContractedGraph, chosen: set[int]):
    """Contract the shortest surviving inter-component edge (tie: edge id)."""
    best = None
    for x in cg.active_vertices():
        for y, (length, eid) in cg.adj[x].items():
            if x < y and (best is None or (length, eid) < (best[0], best[1])):
                best = (length, eid, x, y)
    if best is None:
        raise GraphError("contracted graph has no surviving edges")
    chosen.add(best[1])
    cg.contract_edge(best[2], best[3])


def neighbors(inst: ProblemInstance, current: Solution, kind: str):
    """Stream of (tabu attributes, rebuilt solution) in deterministic order:
    a NET exchange gives (add, remove), an SCH shift the moved vertex (v,) or
    pair (u, v)."""
    if kind == NET:
        ids = set(current.tree.edge_ids)
        for add, remove in enumerate_edge_exchange(inst.net, current.tree):
            tree = SpanningTree.from_edges(inst.net, ids - {remove} | {add})
            yield (add, remove), solve_tree(inst, tree)
    elif kind == SCH:
        oracle = cached_oracle(inst.net)
        order, starts = sequence(inst, current.schedule, True)
        pairs = inst.variant not in IT_VARIANTS
        for j, i in enumerate_shifts(starts, len(order)):
            attrs = order[j] if pairs else (order[j],)
            yield attrs, rebuild(inst, apply_shift(order, j, i), oracle)
    else:
        raise ValueError(f"unknown neighborhood kind {kind!r}")
