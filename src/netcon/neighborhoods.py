"""Neighborhood moves and the sequence-to-tree rebuild procedures.

NET exchanges a non-tree edge for a tree edge on the cycle it closes.  A
scan applies each move (``SpanningTree.moves``) in place to one private
parent list, runs the ES(T) kernel on it and undoes the move before
yielding.  A move rewrites only the parents on its path ``move[2]``, so the
kernel patches the tree's ``kernel_tables``, built once per scan, there.
SCH is one shift move for every variant: move one element of the solution's
connection sequence to the start of an earlier group and rebuild; a vertex
recovery sequence is the case of one vertex per group.  An SCH scan runs the
kernel from scratch on the ``parent_map`` of each distinct rebuilt edge set.
Either kind yields deferred neighbours, built only when read.

Both rebuild procedures resolve shortest-path ties with one shared canonical
rule (``graph._walk_back``: walk back from the larger component
representative, stepping into each super-vertex by its predecessor, the
smallest (representative, edge id) among its tight edges), so rebuilding an
internal-transportation solution from its vertex recovery sequence and from
its full pairs connection sequence yields the same tree.
"""
from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .graph import ContractedGraph, Network, SpanningTree, _walk_back, cached_oracle, parent_map
from .model import (
    IT_VARIANTS,
    EdgeSchedule,
    ProblemInstance,
    pairs_connection_sequence,
    vertex_recovery_sequence,
)
from .solution import Solution, solve_tree
from .tree_solvers import kernel, kernel_tables

NET = "NET"
SCH = "SCH"
KINDS = (NET, SCH)


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


def rebuild(inst: ProblemInstance, order) -> Solution:
    """A-IT (IT variants) or A-ET from a connection sequence, then ES(T)."""
    rebuilt = a_it if inst.variant in IT_VARIANTS else a_et
    return solve_tree(inst, rebuilt(inst.net, order))


class _ITState:
    """A-IT after a prefix of a vertex order: the depot tree grown so far, its
    edges ``chosen`` in join order, whose vertex set (``in_tree``; as an int
    bit mask, ``mask``) alone decides what later joins add.

    The path is the one ``a_et`` would choose on the state "tree plus
    singletons": the tree acts as one super-vertex whose id is its smallest
    member ``root``, and the walk starts from the larger of ``v`` and ``root``."""

    def __init__(self, net: Network):
        self.net = net
        self.dist = cached_oracle(net)
        self.in_tree = [False] * net.n
        self.in_tree[net.depot] = True
        self.root, self.mask = net.depot, 1 << net.depot
        # nearest-tree-vertex distance per vertex
        self.d_tree = self.dist[net.depot].copy()
        self.chosen: list[int] = []

    def copy(self) -> "_ITState":
        new = object.__new__(_ITState)
        new.net, new.dist, new.root, new.mask = self.net, self.dist, self.root, self.mask
        new.in_tree = self.in_tree.copy()
        new.d_tree = self.d_tree.copy()
        new.chosen = self.chosen.copy()
        return new

    def path(self, v: int):
        """A shortest path from the tree to ``v``, or None if ``v`` is in the
        tree already."""
        in_tree = self.in_tree
        if in_tree[v]:
            return None
        root, d_tree, dist, adjacency = self.root, self.d_tree, self.dist, self.net.adjacency
        if v > root:
            d = d_tree.tolist()
        else:
            d = np.minimum(dist[v], d_tree[v] + d_tree).tolist()

        def pred(x):
            # every tree vertex stands for ``root`` and lies at d[root]
            target = d[x]
            if x == root:  # the tree's edges to outside vertices
                tight = [
                    (y, eid)
                    for t, inside in enumerate(in_tree) if inside
                    for y, eid, length in adjacency[t]
                    if not in_tree[y] and d[y] + length == target
                ]
            else:
                tight = [
                    (root if in_tree[y] else y, eid)
                    for y, eid, length in adjacency[x]
                    if d[y] + length == target
                ]
            return min(tight, default=None)

        return _walk_back(max(v, root), d, pred)

    def join(self, path):
        """Add ``path``, a ``path(v)`` of this state, to the tree."""
        self.chosen += path
        in_tree, d_tree, dist, root = self.in_tree, self.d_tree, self.dist, self.root
        edges = self.net.edges
        for eid in path:
            for x in edges[eid][:2]:
                if not in_tree[x]:
                    in_tree[x] = True
                    self.mask |= 1 << x
                    np.minimum(d_tree, dist[x], out=d_tree)
                    root = min(root, x)
        self.root = root

    def probe(self, v: int):
        """``(path, partition after joining it)`` for ``path(v)``, or None if
        ``v`` is in the tree already; this state is left as it is."""
        path = self.path(v)
        if path is None:
            return None
        after, edges = self.mask, self.net.edges
        for eid in path:
            a, b, _ = edges[eid]
            after |= 1 << a | 1 << b
        return path, after

    def partition(self) -> int:
        """The vertex set's bit mask: the partition, which decides what is added next."""
        return self.mask

    def finish(self):
        """A vertex order names every vertex, so the tree spans already."""


def _fold(state, order) -> SpanningTree:
    path, join = state.path, state.join
    for item in order:
        if (edges := path(item)) is not None:
            join(edges)
    state.finish()
    return SpanningTree.from_edges(state.net, state.chosen)


def a_it(net: Network, order) -> SpanningTree:
    """Grow a depot tree by attaching the first unspanned vertex of ``order``
    via a shortest path to the current tree (``_ITState``)."""
    return _fold(_ITState(net), order)


def a_et(net: Network, order) -> SpanningTree:
    """Join the first unconnected pair of ``order`` via a shortest path in the
    contracted graph, then contract that path; Kruskal finishes the forest a
    reduced sequence leaves (``ContractedGraph.path``, ``join`` and ``finish``)."""
    return _fold(ContractedGraph(net), order)


def _run(s, order, ks, futures, passed, snaps=(), budget=None):
    """Chosen edges of ``s`` folding ``order[k]`` for k in ``ks`` (copied to ``snaps``
    at its keys) up to a known future; stores the future of each partition passed.
    ``passed`` holds ``[(partition, len(chosen))]`` of ``s``, which has no stored
    future, and gets one more at each change of the partition; ``chosen`` only
    grows at its end, so a future is a suffix of the run's final edge list.
    Each step first checks ``budget``'s deadline, if given: once it has passed,
    the run returns None and stores no future."""
    for k in ks:
        if budget is not None and budget.expired():
            return None
        if len(s.chosen) > passed[-1][1]:
            key = s.partition()
            if (future := futures.get(key)) is not None:
                break
            passed.append((key, len(s.chosen)))
        if k in snaps:
            snaps[k] = s.copy()
        if k < len(order) and (path := s.path(order[k])) is not None:
            s.join(path)
    else:
        s.finish()
        future = ()
    edges = [*s.chosen, *future]
    for key, before in passed:
        futures[key] = tuple(edges[before:])
    return frozenset(edges)


def _replay(snap, order, futures, j, i):
    """Chosen edges of the shift (j, i) replayed from ``snap``, the state
    after ``order[:i]``: ``order[j]``, then ``order[i:j]``, then the suffix.
    The replay probes ``order[j]`` first and copies ``snap`` only if the
    partition it leads to has no stored future; the copy joins the probed
    path without walking it again.
    Exact: a run stands before ``order[k]`` once ``order[:k]`` and its own
    ``order[j]`` are joined, so runs from one partition attach the same
    unjoined items; each adds what the partition decides (A-IT: the vertex
    set fixes ``in_tree``, ``d_tree``, ``root``; A-ET: ``dist``,
    exact under the rank-1 update, each super-vertex's member set and
    Kruskal's finish), and joins distinct parts, so adds no edge chosen
    before: one run's suffix of its edge list is every run's future.  An A-ET
    copy shares its matrix and member tuples with ``snap``; a contraction
    replaces them and never writes them."""
    path, key = snap.probe(order[j]) or ((), snap.partition())
    if (future := futures.get(key)) is not None:
        return frozenset(itertools.chain(snap.chosen, path, future))
    s = snap.copy()
    s.join(path)
    ks = itertools.chain(range(i, j), range(j + 1, len(order) + 1))
    return _run(s, order, ks, futures, [(key, len(s.chosen))])


def neighbors(inst: ProblemInstance, current: Solution, kind: str, budget):
    """Stream of (tabu attributes, rebuilt solution) in deterministic order:
    a NET exchange gives (add, remove), an SCH shift the moved vertex (v,) or
    pair (u, v).  Every neighbour is deferred: it holds ES(T)'s objective
    from the scan and its tree's edge ids (NET: the scan's ids with ``add``
    and ``remove`` swapped; SCH: the rebuilt edge set), builds its tree and
    schedule on first read and checks that objective on them, so a
    neighbour never read builds no ``SpanningTree``.  A NET scan hands
    ES(T) the tree's tables and each move's path; an SCH scan runs ES(T)
    once per distinct tree, on its ``parent_map``; neighbours with one
    tree share one Solution.
    The stream ends at ``budget``'s deadline, checked before each move and,
    in an SCH scan, before each step of its base run.

    A consumer may lower ``budget.cutoff``, which the scan sets to infinity
    when it starts: a neighbour whose objective is >= the cutoff when the
    scan reaches it is not yielded (ES(T) returns None on it, and the
    lateness kernels stop early).  The cutoff only falls within a scan, so
    an SCH tree found cut stays cut."""
    es = kernel(inst)
    budget.cutoff = math.inf
    if kind == NET:
        tree = current.tree
        parent = tree.parent
        scratch, tables = list(parent), kernel_tables(inst, parent)
        ids = set(tree.edge_ids)
        for move in tree.moves():
            if budget.expired():
                return
            tree.hang(scratch, move)
            found = es(inst, scratch, budget.cutoff, tables, move[2])
            for v in move[2]:
                scratch[v] = parent[v]
            if found is not None:
                yield move[:2], Solution.deferred(inst, found[1], ids ^ {move[0], move[1]})
    elif kind == SCH:
        order, starts = sequence(inst, current.schedule, True)
        pairs = inst.variant not in IT_VARIANTS
        shifts = list(enumerate_shifts(starts, len(order)))
        if not shifts:
            return
        net = inst.net
        base = (ContractedGraph if pairs else _ITState)(net)
        snaps, futures = dict.fromkeys(i for _, i in shifts), {}  # the base run fills both
        steps = range(len(order) + 1)
        if _run(base, order, steps, futures, [(base.partition(), 0)], snaps, budget) is None:
            return
        solved = {}  # chosen edges -> deferred Solution, or None if cut
        for j, i in shifts:
            if budget.expired():
                return
            edges = _replay(snaps[i], order, futures, j, i)
            if edges in solved:
                sol = solved[edges]
            else:
                found = es(inst, parent_map(net, edges), budget.cutoff)
                sol = solved[edges] = found and Solution.deferred(inst, found[1], edges)
            if sol is not None and sol.objective < budget.cutoff:
                yield (order[j] if pairs else (order[j],)), sol
    else:
        raise ValueError(f"unknown neighborhood kind {kind!r}")
