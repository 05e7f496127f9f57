"""Neighborhood moves and the sequence-to-tree rebuild procedures.

Both rebuild procedures resolve shortest-path ties with one shared canonical
rule (walk back from the larger component representative, preferring the
smallest adjacent representative), so rebuilding an internal-transportation
solution from its vertex recovery sequence and from its full pairs connection
sequence yields the same tree.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

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
    PSequence,
    ProblemInstance,
    VSequence,
    pairs_connection_sequence,
    vertex_recovery_sequence,
)
from .solution import Solution, solve_tree

NET = "NET"
SCH = "SCH"
KINDS = (NET, SCH)


@dataclass(frozen=True)
class EdgeExchange:
    add: int
    remove: int


@dataclass(frozen=True)
class VertexShift:
    vertex: int
    to_position: int


@dataclass(frozen=True)
class PairShift:
    pair: tuple[int, int]
    to_group: int


def enumerate_edge_exchange(net: Network, tree: SpanningTree):
    """All (add, remove) pairs: non-tree edges ascending, removals in
    cycle-path order."""
    in_tree = set(tree.edge_ids)
    for add in range(net.m):
        if add in in_tree:
            continue
        for remove in spanning_tree_cycle(tree, add):
            yield EdgeExchange(add, remove)


def apply_edge_exchange(tree: SpanningTree, move: EdgeExchange) -> SpanningTree:
    ids = set(tree.edge_ids)
    ids.discard(move.remove)
    ids.add(move.add)
    return SpanningTree.from_edges(tree.net, ids)


def enumerate_vertex_shifts(seq: VSequence):
    """Every move of one vertex to a strictly earlier position."""
    for j in range(1, len(seq.order)):
        for i in range(j):
            yield VertexShift(seq.order[j], i)


def apply_vertex_shift(seq: VSequence, move: VertexShift) -> VSequence:
    order = list(seq.order)
    order.remove(move.vertex)
    order.insert(move.to_position, move.vertex)
    return VSequence(tuple(order))


def enumerate_pair_shifts(seq: PSequence):
    """Moves of one pair to the first position of an earlier p-group.

    Earlier groups sharing the same first position (empty groups) would give
    identical sequences, so only the earliest such group is offered; moves
    that would not displace any pair are skipped.
    """
    for j in range(len(seq.order)):
        g = seq.group_of(j)
        seen: set[int] = set()
        for t in range(g):
            i = seq.group_starts[t]
            if i < j and i not in seen:
                seen.add(i)
                yield PairShift(seq.order[j], t)


def apply_pair_shift(seq: PSequence, move: PairShift) -> tuple[tuple[int, int], ...]:
    """Flattened pair order after the shift (grouping is rebuilt downstream)."""
    order = list(seq.order)
    j = order.index(move.pair)
    i = seq.group_starts[move.to_group]
    del order[j]
    order.insert(i, move.pair)
    return tuple(order)


def a_it(net: Network, oracle: DistanceOracle, s: VSequence) -> SpanningTree:
    """Grow a depot tree by attaching the first unspanned sequence vertex via
    a shortest path to the current tree.

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

    for v in s.order:
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


def a_et(net: Network, s, oracle: DistanceOracle | None = None) -> SpanningTree:
    """Join the first unconnected sequence pair via a shortest path in the
    contracted graph, then contract that path; greedy completion if a reduced
    sequence leaves a forest."""
    order = s.order if isinstance(s, PSequence) else tuple(s)
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
    """Stream of (move, rebuilt solution) pairs in deterministic order."""
    if kind == NET:
        yield from _net_neighbors(inst, current)
    elif kind == SCH:
        if inst.variant in IT_VARIANTS:
            yield from _vertex_shift_neighbors(inst, current)
        else:
            yield from _pair_shift_neighbors(inst, current)
    else:
        raise ValueError(f"unknown neighborhood kind {kind!r}")


def _net_neighbors(inst, current):
    for move in enumerate_edge_exchange(inst.net, current.tree):
        tree = apply_edge_exchange(current.tree, move)
        yield move, solve_tree(inst, tree)


def _vertex_shift_neighbors(inst, current):
    oracle = cached_oracle(inst.net)
    seq = vertex_recovery_sequence(inst, current.schedule)
    for move in enumerate_vertex_shifts(seq):
        tree = a_it(inst.net, oracle, apply_vertex_shift(seq, move))
        yield move, solve_tree(inst, tree)


def _pair_shift_neighbors(inst, current):
    oracle = cached_oracle(inst.net)
    seq = pairs_connection_sequence(inst, current.schedule, reduced=True)
    for move in enumerate_pair_shifts(seq):
        tree = a_et(inst.net, apply_pair_shift(seq, move), oracle)
        yield move, solve_tree(inst, tree)
