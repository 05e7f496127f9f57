"""Optimal edge-construction orders for a fixed spanning tree, plus oracles.

Jobs are the tree edges, each identified with its far (non-depot-side)
endpoint; the parent edge must precede the child edge in the internal
transportation setting.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from .graph import Network, SpanningTree, _UnionFind
from .model import (
    L,
    L_ETPC,
    SWRT,
    USRT,
    EdgeSchedule,
    ProblemInstance,
    evaluate,
)


class SizeGuardError(ValueError):
    """Brute-force budget exceeded."""


def _children(tree: SpanningTree) -> list[list[int]]:
    """Per vertex: its children in the tree, ascending."""
    kids: list[list[int]] = [[] for _ in range(tree.net.n)]
    for v, (p, _) in enumerate(tree.parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def _order_to_schedule(tree: SpanningTree, vertex_order) -> EdgeSchedule:
    return EdgeSchedule(tree, tuple(tree.parent[v][1] for v in vertex_order))


def es_swrt(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """Minimum total weighted recovery time order for an out-tree.

    Iterative ratio merging: the non-root block with the largest
    weight/length ratio (tie: smallest head vertex) is concatenated onto the
    block holding its tree parent, until only the root block remains.
    """
    if inst.variant not in (USRT, SWRT):
        raise ValueError(f"es_swrt does not apply to variant {inst.variant}")
    net = tree.net
    depot = net.depot
    vertices = [v for v in range(net.n) if v != depot]
    seq: dict[int, list[int]] = {v: [v] for v in vertices}
    seq[depot] = []
    weight = {v: inst.weights[v] for v in vertices}
    length = {v: net.edges[tree.parent[v][1]][2] for v in vertices}
    leader: dict[int, int] = {v: v for v in range(net.n)}

    def find(v: int) -> int:
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    active = set(vertices)
    while active:
        best = None
        for h in sorted(active):
            if best is None or weight[h] * length[best] > weight[best] * length[h]:
                best = h
        p = find(tree.parent[best][0])
        seq[p].extend(seq[best])
        if p != depot:
            weight[p] += weight[best]
            length[p] += length[best]
        leader[best] = p
        active.discard(best)
    return _order_to_schedule(tree, seq[depot])


def es_lmax(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """Minimum maximum-lateness order for an out-tree (least-cost-last).

    Builds the sequence backwards: among jobs with no unplaced descendants,
    the one with the largest due date (tie: smallest vertex) goes last.
    """
    if inst.variant != L:
        raise ValueError(f"es_lmax does not apply to variant {inst.variant}")
    depot = tree.net.depot
    pending_kids = [len(k) for k in _children(tree)]
    remaining = {v for v in range(tree.net.n) if v != depot}
    due = inst.vertex_due_dates
    tail: list[int] = []
    while remaining:
        best = None
        for v in sorted(remaining):
            if pending_kids[v]:
                continue
            if best is None or due[v] > due[best]:
                best = v
        tail.append(best)
        remaining.discard(best)
        pending_kids[tree.parent[best][0]] -= 1
    return _order_to_schedule(tree, tail[::-1])


def _effective_due_dates(inst: ProblemInstance, tree: SpanningTree) -> dict[int, float]:
    """Per tree edge: the smallest due date over relevant pairs whose tree
    path contains the edge; infinity if none."""
    d_e = {eid: math.inf for eid in tree.edge_ids}
    for (u, v), d in inst.pair_due_dates.items():
        for eid in tree.path_edges(u, v):
            if d < d_e[eid]:
                d_e[eid] = d
    return d_e


def es_letpc(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """Minimum maximum pair lateness order in the external setting.

    Edges get effective due dates (minimum over covering relevant pairs) and
    are sequenced in ascending (due date, edge id) order.
    """
    if inst.variant != L_ETPC:
        raise ValueError(f"es_letpc does not apply to variant {inst.variant}")
    d_e = _effective_due_dates(inst, tree)
    order = sorted(tree.edge_ids, key=lambda eid: (d_e[eid], eid))
    return EdgeSchedule(tree, tuple(order))


def optimal_schedule(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """ES(T): the exact tree-restricted solver for the instance's variant."""
    if inst.variant in (USRT, SWRT):
        return es_swrt(inst, tree)
    if inst.variant == L:
        return es_lmax(inst, tree)
    return es_letpc(inst, tree)


def brute_force_tree(inst: ProblemInstance, tree: SpanningTree):
    """Exhaustive minimum over all feasible orders of the tree's edges."""
    if tree.net.n > 10:
        raise SizeGuardError(f"brute force limited to n <= 10, got {tree.net.n}")
    if inst.variant == L_ETPC:
        return _brute_force_et(inst, tree)
    return _brute_force_it(inst, tree)


def _brute_force_it(inst: ProblemInstance, tree: SpanningTree):
    """Enumerate out-tree linear extensions with incremental pruning."""
    net = tree.net
    kids = _children(tree)
    weights = inst.weights if inst.variant in (USRT, SWRT) else None
    due = inst.vertex_due_dates if inst.variant == L else None
    is_sum = weights is not None

    best_obj = None
    best_order = None
    chosen: list[int] = []

    def rec(available: list[int], t: int, partial):
        nonlocal best_obj, best_order
        if best_obj is not None and partial >= best_obj:
            return
        if not available:
            best_obj = partial
            best_order = list(chosen)
            return
        for i, v in enumerate(available):
            t2 = t + net.edges[tree.parent[v][1]][2]
            if is_sum:
                p2 = partial + weights[v] * t2
            else:
                p2 = max(partial, t2 - due[v])
            nxt = available[:i] + available[i + 1 :]
            for c in kids[v]:
                nxt.append(c)
            nxt.sort()
            chosen.append(v)
            rec(nxt, t2, p2)
            chosen.pop()

    # -inf is below every lateness and max() returns the exact int beside it
    rec(kids[net.depot], 0, -math.inf if due is not None else 0)
    return best_obj, _order_to_schedule(tree, best_order)


def _brute_force_et(inst: ProblemInstance, tree: SpanningTree):
    """Vectorized sweep over all permutations of the tree edges."""
    edge_ids = list(tree.edge_ids)
    k = len(edge_ids)
    idx_of = {eid: i for i, eid in enumerate(edge_ids)}
    lengths = np.array([tree.net.edges[eid][2] for eid in edge_ids], dtype=np.int64)
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    completions = np.cumsum(lengths[perms], axis=1)
    pos = np.argsort(perms, axis=1)  # pos[p, i]: position of edge i in perm p
    edge_completion = np.take_along_axis(completions, pos, axis=1)
    # Lateness relative to the smallest due date d0 keeps the int64 sweep
    # exact.  Completions lie in [0, T], T the total length, so the d0 pair's
    # relative lateness is >= 0.  An offset due date above T + 1 is cut to
    # T + 1: that pair's relative lateness stays below 0 and never sets the max.
    d0 = min(inst.pair_due_dates.values())
    cap = tree.net.total_length + 1
    obj = None
    for (u, v), d in sorted(inst.pair_due_dates.items()):
        path = [idx_of[eid] for eid in tree.path_edges(u, v)]
        late = edge_completion[:, path].max(axis=1) - min(d - d0, cap)
        obj = late if obj is None else np.maximum(obj, late, out=obj)
    best = int(obj.argmin())
    order = tuple(edge_ids[i] for i in perms[best])
    return int(obj[best]) - d0, EdgeSchedule(tree, order)


def iter_spanning_trees(net: Network):
    """All spanning trees as sorted edge-id tuples, in lexicographic order."""
    for combo in combinations(range(net.m), net.n - 1):
        uf = _UnionFind(net.n)
        ok = True
        for eid in combo:
            a, b, _ = net.edges[eid]
            if not uf.union(a, b):
                ok = False
                break
        if ok:
            yield combo


def brute_force_instance(inst: ProblemInstance):
    """Exact global optimum: minimum of F(ES(T)) over all spanning trees."""
    net = inst.net
    if not (net.n <= 7 or net.m <= net.n + 3):
        raise SizeGuardError(f"instance too large for brute force (n={net.n}, m={net.m})")
    best_obj = None
    best_sched = None
    for combo in iter_spanning_trees(net):
        tree = SpanningTree.from_edges(net, combo)
        sched = optimal_schedule(inst, tree)
        obj, _ = evaluate(inst, sched)
        if best_obj is None or obj < best_obj:
            best_obj, best_sched = obj, sched
    return best_obj, best_sched
