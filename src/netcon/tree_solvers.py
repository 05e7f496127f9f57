"""Optimal edge-construction orders for a fixed spanning tree, plus oracles.

Jobs are the tree edges, each identified with its far (non-depot-side)
endpoint; the parent edge must precede the child edge in the internal
transportation setting.
"""
from __future__ import annotations

import heapq
import math

from .graph import Network, SpanningTree, tree_depths
from .model import (
    L,
    L_ETPC,
    SWRT,
    USRT,
    EdgeSchedule,
    ProblemInstance,
)


class SizeGuardError(ValueError):
    """Brute-force budget exceeded."""


def es_swrt(inst: ProblemInstance, parent) -> tuple[tuple[int, ...], int]:
    """Minimum total weighted recovery time order (edge ids) for the out-tree
    of a parent map (vertex -> (parent vertex, edge id)), and its objective.

    Horn's ratio merging in O(n log n): the non-root block with the largest
    weight/length ratio (tie: smallest head vertex) is concatenated onto the
    block holding its tree parent, until only the root block remains.  Blocks
    sit in one heap with lazy deletion; a block's sequence is a linked list.
    The objective is summed over the finished sequence with the original
    weights and lengths, not the merged block sums.

    Ratios compare as exact ints floor(W / l), W = w * L**2 kept per block
    and L the network's total length: a block length is a sum of distinct
    edges, so l <= L, and unequal ratios differ by at least
    1/(l1 * l2) >= 1/L**2, so the floors keep the strict order; equal ratios
    tie and go smallest head first.  A heap entry is the one int
    key * n + head, key = -floor(W / l), which for 0 <= head < n orders as
    (key, head).  ``cur[head]`` is the head's latest entry, None once it
    merged: an entry is current iff it equals that, and an older entry of
    equal value has the same priority, so whichever pops first merges.
    """
    if inst.variant not in (USRT, SWRT):
        raise ValueError(f"es_swrt does not apply to variant {inst.variant}")
    net = inst.net
    n, depot, lengths = net.n, net.depot, net.lengths
    heappop, heappushpop = heapq.heappop, heapq.heappushpop
    weight = list(inst.scaled_weights)
    length = [lengths[eid] for _, eid in parent]
    leader = list(range(n))
    # block sequences: head -> nxt -> ... -> tail; the depot block's head is
    # the depot itself, which is not part of its sequence
    nxt = [-1] * n
    tail = list(range(n))
    heap = [-(w // l) * n + v for v, (w, l) in enumerate(zip(weight, length)) if v != depot]
    cur = heap[:]
    cur.insert(depot, None)
    heapq.heapify(heap)
    while heap:
        e = heappop(heap)
        while e == cur[h := e % n]:
            cur[h] = None
            p = parent[h][0]
            while leader[p] != p:
                leader[p] = p = leader[leader[p]]  # path halving
            nxt[tail[p]] = h
            tail[p] = tail[h]
            leader[h] = p
            if p == depot:
                break
            weight[p] += weight[h]
            length[p] += length[h]
            cur[p] = -(weight[p] // length[p]) * n + p
            e = heappushpop(heap, cur[p])
    weights = inst.weights
    order = []
    t = obj = 0
    v = nxt[depot]
    while v >= 0:
        eid = parent[v][1]
        order.append(eid)
        t += lengths[eid]
        obj += weights[v] * t
        v = nxt[v]
    return tuple(order), obj


def es_lmax(inst: ProblemInstance, parent) -> tuple[tuple[int, ...], int]:
    """Minimum maximum-lateness order for the out-tree of a parent map
    (least-cost-last), and its objective.

    Builds the sequence backwards in O(n log n): a heap holds the jobs with
    no unplaced children, and the one with the largest due date (tie:
    smallest vertex) goes last.  That order does not depend on the tree, so
    the heap holds each vertex's rank in the instance's ``due_ranks``.  The
    maximum lateness is taken in one forward pass over the finished sequence.
    """
    if inst.variant != L:
        raise ValueError(f"es_lmax does not apply to variant {inst.variant}")
    depot, lengths = inst.net.depot, inst.net.lengths
    due = inst.vertex_due_dates
    rank, by_rank = inst.due_ranks
    heappop, heappush = heapq.heappop, heapq.heappush
    pending_kids = [0] * (inst.net.n + 1)  # the last slot counts the depot's parent -1
    for p, _ in parent:
        pending_kids[p] += 1
    pending_kids[depot] += 1  # so the depot is never placed
    heap = [r for r, v in enumerate(by_rank) if not pending_kids[v]]  # ascending: a heap
    tail: list[int] = []
    while heap:
        v = by_rank[heappop(heap)]
        tail.append(v)
        p = parent[v][0]
        pending_kids[p] -= 1
        if not pending_kids[p]:
            heappush(heap, rank[p])
    order = []
    t = 0
    # -inf is below every lateness; ProblemInstance rejects L without a
    # non-depot vertex, so the result is the exact int of one of them
    obj = -math.inf
    for v in reversed(tail):
        eid = parent[v][1]
        order.append(eid)
        t += lengths[eid]
        if t - due[v] > obj:
            obj = t - due[v]
    return tuple(order), obj


def _effective_due_dates(inst: ProblemInstance, parent) -> dict[int, float]:
    """Per tree edge: the smallest due date over relevant pairs whose tree
    path contains the edge; infinity if none.

    Offline path painting: pairs in ascending due date paint the unpainted
    edges of their tree paths, so each edge is written once, by its smallest
    due date.  Vertices joined by painted edges share a union-find set whose
    root is its highest vertex, the one whose parent edge is still unpainted
    (or the depot): a painted set is linked under the set of its root's
    parent, whose root stays.  A path walk jumps from root to root.  Once
    every edge is painted the remaining pairs change nothing.
    """
    d_e = {eid: math.inf for _, eid in parent if eid >= 0}
    depth = tree_depths(parent, inst.net.depot)
    link = list(range(inst.net.n))

    def find(x: int) -> int:
        while link[x] != x:
            link[x] = x = link[link[x]]  # path halving
        return x

    unpainted = len(d_e)
    for (u, v), d in inst.pairs_by_due_date:
        if not unpainted:
            break
        x, y = find(u), find(v)
        while x != y:
            # the deeper root lies strictly below the pair's lowest common
            # ancestor, so its parent edge is an unpainted edge of the path
            if depth[x] < depth[y]:
                x, y = y, x
            p, eid = parent[x]
            d_e[eid] = d
            unpainted -= 1
            link[x] = x = find(p)
    return d_e


def es_letpc(inst: ProblemInstance, parent) -> tuple[tuple[int, ...], int]:
    """Minimum maximum pair lateness order in the external setting for the
    tree of a parent map, and its objective.

    Edges get effective due dates (minimum over covering relevant pairs) and
    are sequenced in ascending (due date, edge id) order.  A pair connects
    when the last edge of its tree path completes, so swapping the two maxima
    gives max over pairs p of max over e in P(p) of (C_e - d_p) = max over
    covered edges e of (C_e - d_e): one pass over the order.
    """
    if inst.variant != L_ETPC:
        raise ValueError(f"es_letpc does not apply to variant {inst.variant}")
    keyed = sorted((d, eid) for eid, d in _effective_due_dates(inst, parent).items())
    lengths = inst.net.lengths
    t = 0
    # every relevant pair covers at least one edge, so the result is an int
    obj = -math.inf
    for d, eid in keyed:
        if d == math.inf:
            break  # uncovered edges sort last and set no lateness
        t += lengths[eid]
        if t - d > obj:
            obj = t - d
    return tuple(eid for _, eid in keyed), obj


def kernel(inst: ProblemInstance):
    """The ES(T) kernel of the instance's variant, ``(inst, parent map) ->
    (order, objective)``."""
    if inst.variant in (USRT, SWRT):
        return es_swrt
    return es_lmax if inst.variant == L else es_letpc


def optimal_schedule(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """ES(T): the exact tree-restricted solver for the instance's variant."""
    return EdgeSchedule(tree, kernel(inst)(inst, tree.parent)[0])


def iter_spanning_trees(net: Network):
    """All spanning trees as sorted edge-id tuples, in lexicographic order:
    include-first backtracking over ascending edge ids.  An edge is taken
    when it joins two sets of a union-find (by size, without path
    compression, so one link undoes a union on return) and passed over
    while enough edges remain after it."""
    edges, need = net.edges, net.n - 1
    link, size, chosen = list(range(net.n)), [1] * net.n, []

    def find(x: int) -> int:
        while link[x] != x:
            x = link[x]
        return x

    def extend(e: int):
        if len(chosen) == need:
            yield tuple(chosen)
        elif net.m - e >= need - len(chosen):
            a, b = sorted((find(edges[e][0]), find(edges[e][1])), key=size.__getitem__)
            if a != b:  # the smaller set a hangs below b
                link[a] = b
                size[b] += size[a]
                chosen.append(e)
                yield from extend(e + 1)
                chosen.pop()
                size[b] -= size[a]
                link[a] = a
            yield from extend(e + 1)

    return extend(0)


def brute_force_instance(inst: ProblemInstance):
    """Exact global optimum: minimum of F(ES(T)) over all spanning trees."""
    net = inst.net
    if not (net.n <= 7 or net.m <= net.n + 3):
        raise SizeGuardError(f"instance too large for brute force (n={net.n}, m={net.m})")
    es = kernel(inst)
    best_obj = best_sched = None
    for combo in iter_spanning_trees(net):
        tree = SpanningTree.from_edges(net, combo)
        order, obj = es(inst, tree.parent)
        if best_obj is None or obj < best_obj:
            best_obj, best_sched = obj, EdgeSchedule(tree, order)
    return best_obj, best_sched
