"""Optimal edge-construction orders for a fixed spanning tree, plus oracles.

Jobs are the tree edges, each identified with its far (non-depot-side)
endpoint; the parent edge must precede the child edge in the internal
transportation setting.
"""
from __future__ import annotations

import heapq
import math

from .graph import Network, SpanningTree, parent_map, tree_depths
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


def es_swrt(inst: ProblemInstance, parent, cutoff=math.inf, tables=None, moved=()) -> tuple | None:
    """Minimum total weighted recovery time order (edge ids) for the out-tree
    of a parent map (vertex -> (parent vertex, edge id)), and its objective;
    None iff that objective is >= ``cutoff``.  The cutoff is read only once
    the sum is done: a running sum is a bound, but crosses it too late in
    the merge to save time.  ``tables`` are ``kernel_tables`` of a map
    equal to ``parent`` but at ``moved`` (default: of ``parent``).

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
    n, depot, lengths = inst.net.n, inst.net.depot, inst.net.lengths
    heappop, heappushpop = heapq.heappop, heapq.heappushpop
    weight = list(inst.scaled_weights)
    length, cur = map(list, tables) if tables else kernel_tables(inst, parent)
    for v in moved:
        length[v] = l = lengths[parent[v][1]]
        cur[v] = -(weight[v] // l) * n + v
    heap = cur[:depot] + cur[depot + 1 :]
    heapq.heapify(heap)
    leader = list(range(n))
    # block sequences: head -> nxt -> ... -> tail; the depot block's head is
    # the depot itself, which is not part of its sequence
    nxt = [-1] * n
    tail = list(range(n))
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
    return None if obj >= cutoff else (tuple(order), obj)


def es_lmax(inst: ProblemInstance, parent, cutoff=math.inf, tables=None, moved=()) -> tuple | None:
    """Minimum maximum-lateness order for the out-tree of a parent map
    (least-cost-last), and its objective; None iff that objective is
    >= ``cutoff``.  ``tables`` are ``kernel_tables`` of a map equal to
    ``parent`` but at ``moved`` (default: of ``parent``).

    Builds the sequence backwards in O(n log n): a heap holds the jobs with
    no unplaced children, and the one with the largest due date (tie:
    smallest vertex) goes last.  That order does not depend on the tree, so
    the heap holds each vertex's rank in the instance's ``due_ranks``.  The
    pass starts at the tree's total length and each vertex it places
    completes at the running t, so its lateness is known there: the pass
    takes the maximum and stops once it reaches ``cutoff``.
    """
    if inst.variant != L:
        raise ValueError(f"es_lmax does not apply to variant {inst.variant}")
    lengths, due = inst.net.lengths, inst.vertex_due_dates
    rank, by_rank = inst.due_ranks
    heappop, heappush = heapq.heappop, heapq.heappush
    base, pending_kids, heap, t = tables or kernel_tables(inst, parent)
    if tables:  # patch copies; a path vertex gains its new child before it loses its old one
        pending_kids, heap = pending_kids[:], heap[:]
        for v in reversed(moved):
            (p, old), (q, new) = base[v], parent[v]
            t += lengths[new] - lengths[old]
            pending_kids[p] -= 1
            if not pending_kids[p]:
                heap.append(rank[p])
            if not pending_kids[q]:
                heap.remove(rank[q])
            pending_kids[q] += 1
        heapq.heapify(heap)
    tail: list[int] = []
    # -inf is below every lateness; ProblemInstance rejects L without a
    # non-depot vertex, so the result is the exact int of one of them
    obj = -math.inf
    while heap:
        v = by_rank[heappop(heap)]
        if t - due[v] > obj:
            obj = t - due[v]
            if obj >= cutoff:
                return None
        p, eid = parent[v]
        tail.append(eid)
        t -= lengths[eid]
        pending_kids[p] -= 1
        if not pending_kids[p]:
            heappush(heap, rank[p])
    tail.reverse()
    return tuple(tail), obj


def es_letpc(inst: ProblemInstance, parent, cutoff=math.inf, tables=None, moved=()) -> tuple | None:
    """Minimum maximum pair lateness order in the external setting for the
    tree of a parent map, and its objective; None iff that objective is
    >= ``cutoff``; ``tables`` and ``moved`` are ignored (``kernel_tables``).

    Edges get effective due dates (minimum over covering relevant pairs) and
    are sequenced in ascending (due date, edge id) order, uncovered edges
    last.  A pair connects when the last edge of its tree path completes, so
    swapping the two maxima gives max over pairs p of max over e in P(p) of
    (C_e - d_p) = max over covered edges e of (C_e - d_e).

    Offline path painting: pairs in ascending due date paint the unpainted
    edges of their tree paths, so each edge is written once, by its smallest
    due date.  Vertices joined by painted edges share a union-find set whose
    root is its highest vertex, the one whose parent edge is still unpainted
    (or the depot): a painted set is linked under the set of its root's
    parent, whose root stays.  A path walk jumps from root to root.  Once
    every edge is painted the remaining pairs change nothing.

    Painting writes the due dates in nondecreasing order, so after a pair of
    due date d the painted length t is at most the completion time of the
    last edge of due date d, and equals it once d's last pair has painted:
    the maximum of t - d over the pairs is the objective, taken in the
    walk, which stops once it reaches ``cutoff``.  The sort gives the order
    only.
    """
    if inst.variant != L_ETPC:
        raise ValueError(f"es_letpc does not apply to variant {inst.variant}")
    n, depot, lengths = inst.net.n, inst.net.depot, inst.net.lengths
    depth = tree_depths(parent, depot)
    link = list(range(n))

    def find(x: int) -> int:
        while link[x] != x:
            link[x] = x = link[link[x]]  # path halving
        return x

    painted = []  # (due date, edge id) in painting order
    unpainted, t = n - 1, 0
    # the first pair paints an edge of its path, so the result is an int
    obj = -math.inf
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
            painted.append((d, eid))
            t += lengths[eid]
            unpainted -= 1
            link[x] = x = find(p)
        if t - d > obj:
            obj = t - d
            if obj >= cutoff:
                return None
    painted.sort()
    order = [eid for _, eid in painted]
    if unpainted:  # uncovered: the parent edges of the unlinked vertices but the depot
        order += sorted(parent[x][1] for x in range(n) if link[x] == x and x != depot)
    return tuple(order), obj


def kernel(inst: ProblemInstance):
    """The ES(T) kernel of the instance's variant, ``(inst, parent map,
    cutoff=inf, tables=None, moved=()) -> (order, objective)``, or None iff
    the objective is >= cutoff."""
    if inst.variant in (USRT, SWRT):
        return es_swrt
    return es_lmax if inst.variant == L else es_letpc


def kernel_tables(inst: ProblemInstance, parent):
    """The per-tree inputs of ``kernel(inst)``, which a call on a map that
    differs from ``parent`` only at ``moved`` patches on copies.  SWRT/USRT:
    parent-edge lengths and heap entries (None at the depot); L: ``parent``,
    child counts (one more at the depot, never placed; the last slot is the
    depot's parent -1), childless ranks ascending and the total length;
    L_ETPC: None, as a move changes depths across its cut-off subtree."""
    n, depot, lengths = inst.net.n, inst.net.depot, inst.net.lengths
    if inst.variant in (USRT, SWRT):
        length, weight = [lengths[eid] for _, eid in parent], inst.scaled_weights
        return length, [None if v == depot else -(weight[v] // l) * n + v for v, l in enumerate(length)]
    if inst.variant != L:
        return None
    pending_kids, t = [0] * (n + 1), 0
    for p, eid in parent:
        pending_kids[p] += 1
        t += lengths[eid]  # the depot's edge id -1 reads 0
    pending_kids[depot] += 1
    return parent, pending_kids, [r for r, v in enumerate(inst.due_ranks[1]) if not pending_kids[v]], t


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
    best = None  # (objective, order, edge ids): the first strict minimum
    for combo in iter_spanning_trees(net):
        order, obj = es(inst, parent_map(net, combo))
        if best is None or obj < best[0]:
            best = obj, order, combo
    return best[0], EdgeSchedule(SpanningTree.from_edges(net, best[2]), best[1])
