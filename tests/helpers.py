"""Shared fixtures: tiny named networks, random generators, independent oracles."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np

from netcon import (
    DEFAULT_PARAMS,
    IT_VARIANTS,
    L,
    L_ETPC,
    SWRT,
    USRT,
    Budget,
    ContractedGraph,
    EdgeSchedule,
    Network,
    ProblemInstance,
    SizeGuardError,
    Solution,
    SpanningTree,
    a_et,
    a_it,
    evaluate,
    impr,
    mst_heuristic,
    neighbors,
    optimal_schedule,
    shake,
)
from netcon.graph import _floyd_warshall, _UnionFind, kruskal
from netcon.neighborhoods import apply_shift, enumerate_shifts, sequence


def tri() -> Network:
    """Triangle: e0=(0,1,1), e1=(0,2,3), e2=(1,2,1), depot 0."""
    return Network(3, ((0, 1, 1), (0, 2, 3), (1, 2, 1)), depot=0)


def to_nx(net: Network) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(net.n))
    for eid, (a, b, w) in enumerate(net.edges):
        g.add_edge(a, b, key=eid, weight=w)
    return g


def nx_distances(net: Network) -> dict[tuple[int, int], int]:
    g = to_nx(net)
    out = {}
    for u, lengths in nx.all_pairs_dijkstra_path_length(g, weight="weight"):
        for v, d in lengths.items():
            out[(u, v)] = int(d)
    return out


def random_network(
    rng: random.Random,
    n: int,
    extra_edges: int | None = None,
    max_len: int = 20,
    complete: bool = False,
) -> Network:
    """Connected network: random spanning tree plus extra distinct edges."""
    pairs = list(itertools.combinations(range(n), 2))
    if complete:
        chosen = pairs
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        tree_pairs = {
            tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)
        }
        rest = [p for p in pairs if p not in tree_pairs]
        rng.shuffle(rest)
        if extra_edges is None:
            extra_edges = rng.randrange(0, min(len(rest), n) + 1)
        chosen = sorted(tree_pairs | set(rest[:extra_edges]))
    edges = tuple((a, b, rng.randint(1, max_len)) for a, b in chosen)
    return Network(n, edges, depot=rng.randrange(n))


def random_spanning_tree(rng: random.Random, net: Network) -> SpanningTree:
    order = list(range(net.m))
    rng.shuffle(order)
    parent = list(range(net.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ids = []
    for eid in order:
        a, b, _ = net.edges[eid]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            ids.append(eid)
    return SpanningTree.from_edges(net, ids)


def random_feasible_order(rng: random.Random, tree: SpanningTree) -> EdgeSchedule:
    """Uniform-ish feasible e-sequence: grow the built part from the depot."""
    net = tree.net
    built = {net.depot}
    remaining = set(tree.edge_ids)
    order = []
    while remaining:
        frontier = [
            eid
            for eid in remaining
            if net.edges[eid][0] in built or net.edges[eid][1] in built
        ]
        eid = frontier[rng.randrange(len(frontier))]
        remaining.discard(eid)
        order.append(eid)
        built.update(net.edges[eid][:2])
    return EdgeSchedule(tree, tuple(order))


def random_order(rng: random.Random, tree: SpanningTree) -> EdgeSchedule:
    order = list(tree.edge_ids)
    rng.shuffle(order)
    return EdgeSchedule(tree, tuple(order))


def random_instance(
    rng: random.Random,
    variant: str,
    n: int,
    max_len: int = 20,
    max_weight: int = 10,
    max_pairs: int = 8,
    **net_kwargs,
) -> ProblemInstance:
    net = random_network(rng, n, max_len=max_len, **net_kwargs)
    return attach_data(rng, net, variant, max_weight=max_weight, max_pairs=max_pairs)


def attach_data(
    rng: random.Random,
    net: Network,
    variant: str,
    max_weight: int = 10,
    max_pairs: int = 8,
) -> ProblemInstance:
    horizon = net.total_length
    if variant == USRT:
        return ProblemInstance(net, USRT)
    if variant == SWRT:
        weights = tuple(rng.randint(1, max_weight) for _ in range(net.n))
        return ProblemInstance(net, SWRT, weights=weights)
    if variant == L:
        due = tuple(rng.randint(0, horizon) for _ in range(net.n))
        return ProblemInstance(net, L, vertex_due_dates=due)
    pairs = list(itertools.combinations(range(net.n), 2))
    q = rng.randint(1, min(max_pairs, len(pairs)))
    sample = rng.sample(pairs, q)
    return ProblemInstance(
        net, L_ETPC, pair_due_dates={p: rng.randint(0, horizon) for p in sample}
    )


def tree_path(tree: SpanningTree, u: int, v: int) -> list[int]:
    """Edge ids of the tree path from ``u`` to ``v``, in order, from networkx
    on the tree's edges alone."""
    g = nx.Graph()
    g.add_nodes_from(range(tree.net.n))
    g.add_edges_from((*tree.net.edges[eid][:2], {"eid": eid}) for eid in tree.edge_ids)
    path = nx.shortest_path(g, u, v)  # a tree has one path
    return [g.edges[x, y]["eid"] for x, y in zip(path, path[1:])]


def reference_moves(tree: SpanningTree) -> list[tuple[int, int]]:
    """Every edge exchange as ``(add, remove)``: non-tree edges ``add``
    ascending, each with the edges ``remove`` of ``tree_path`` from its first
    endpoint to its second, in path order."""
    ids = set(tree.edge_ids)
    return [
        (add, remove)
        for add, (a, b, _) in enumerate(tree.net.edges)
        if add not in ids
        for remove in tree_path(tree, a, b)
    ]


def swapped_tree(tree: SpanningTree, move) -> SpanningTree:
    """The tree a ``moves()`` move leads to, built from its swapped edge ids."""
    return SpanningTree.from_edges(tree.net, set(tree.edge_ids) ^ {move[0], move[1]})


def attach(state, item) -> None:
    """Join ``item`` on an A-IT or A-ET state unless it is joined already."""
    if (path := state.path(item)) is not None:
        state.join(path)


def reference_tips(dist, nbrs, vertices) -> dict[tuple[int, int], int]:
    """Canonical predecessors from distances alone: ``tips[s, v]`` (``s != v``)
    is the smallest neighbor ``y`` of ``v`` with
    ``dist[s, y] + len(y, v) == dist[s, v]``; ``nbrs(v)`` yields
    ``(y, length)``."""
    return {
        (s, v): min(y for y, length in nbrs(v) if dist[s, y] + length == dist[s, v])
        for s in vertices
        for v in vertices
        if s != v
    }


def walk_tips(tips, s: int, t: int, edge_id) -> list[int]:
    """Edge ids from ``s`` to ``t`` following ``tips[s, .]`` back from ``t``;
    ``edge_id(p, x)`` names the edge between ``p`` and ``x``."""
    path = []
    cur = t
    while cur != s:
        prev = tips[s, cur]
        path.append(edge_id(prev, cur))
        cur = prev
    path.reverse()
    return path


def contracted_adjacency(cg) -> list[dict[int, tuple[int, int]]]:
    """Per vertex, the super-vertex adjacency from ``net.edges`` and
    ``cg.label`` alone: at a label, other label -> (length, edge id) of the
    shortest edge between the two (tie: smallest edge id); empty elsewhere."""
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(cg.net.n)]
    for eid, (a, b, w) in enumerate(cg.net.edges):
        x, y = cg.label[a], cg.label[b]
        if x != y and (y not in adj[x] or (w, eid) < adj[x][y]):
            adj[x][y] = adj[y][x] = (w, eid)
    return adj


def recompute_contracted(cg):
    """Independent (dist, tips) for a ContractedGraph state: fresh Floyd-Warshall
    over ``contracted_adjacency``, plus ``reference_tips`` over the active
    representatives."""
    n = cg.net.n
    active = sorted(set(cg.label))
    adj = contracted_adjacency(cg)
    big = cg.net.total_length + 1
    dist = np.full((n, n), big, dtype=np.int64)
    for v in active:
        dist[v, v] = 0
    for x in active:
        for y, (length, _) in adj[x].items():
            dist[x, y] = length
    sub = dist[np.ix_(active, active)]
    _floyd_warshall(sub)
    dist[np.ix_(active, active)] = sub
    d = dist.tolist()
    tips = reference_tips(
        {(s, v): d[s][v] for s in active for v in active},
        lambda v: [(y, length) for y, (length, _) in adj[v].items()],
        active,
    )
    return dist, tips


def forest_labels(net: Network, edge_ids) -> list[int]:
    """Per vertex, the smallest member of its component in the forest of
    edges ``edge_ids``."""
    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(net.edges[eid][:2] for eid in edge_ids)
    label = [0] * net.n
    for component in nx.connected_components(g):
        for v in component:
            label[v] = min(component)
    return label


def tip_path(cg, tips, a: int, b: int) -> list[int]:
    """Original edge ids of the path between the super-vertices of ``a`` and
    ``b`` that follows ``tips`` back from the larger representative."""
    ra, rb = cg.label[a], cg.label[b]
    adj = contracted_adjacency(cg)
    return walk_tips(tips, min(ra, rb), max(ra, rb), lambda p, x: adj[x][p][1])


def reference_rebuild(net: Network, pairs) -> SpanningTree:
    """Independent sequence-to-tree rebuild: for each pair still split, follow
    the ``recompute_contracted`` tips back from the larger representative to
    the smaller one and contract the edges on that path.  A forest left over
    is completed by contracting the shortest surviving inter-component edge
    (tie: edge id), one at a time."""
    cg = ContractedGraph(net)
    chosen = set()
    for u, v in pairs:
        if cg.label[u] == cg.label[v]:
            continue
        _, tips = recompute_contracted(cg)
        path = tip_path(cg, tips, u, v)
        for eid in path:
            a, b, _ = net.edges[eid]
            cg.contract_edge(a, b)
        chosen.update(path)
    while cg.sets > 1:
        adj = contracted_adjacency(cg)
        _, eid, x, y = min(
            (length, eid, x, y) for x in set(cg.label) for y, (length, eid) in adj[x].items()
        )
        cg.contract_edge(x, y)
        chosen.add(eid)
    return SpanningTree.from_edges(net, chosen)


def group_of(starts, position: int) -> int:
    """Index of the last group starting at or before ``position`` (0 if none)."""
    g = 0
    for k, start in enumerate(starts):
        if start <= position:
            g = k
    return g


def groups(order, starts) -> list[list]:
    """``order`` cut into its groups; an empty group gives an empty list."""
    bounds = list(starts) + [len(order)]
    return [list(order[bounds[k] : bounds[k + 1]]) for k in range(len(starts))]


def reference_shifts(starts, length: int):
    """Reference shift enumeration: for each position j, the first position
    of every earlier group than ``group_of(j)``, once per distinct start and
    only where it lies before j."""
    for j in range(length):
        seen = set()
        for t in range(group_of(starts, j)):
            i = starts[t]
            if i < j and i not in seen:
                seen.add(i)
                yield j, i


def reference_solution(inst: ProblemInstance, tree: SpanningTree) -> Solution:
    """ES(T)'s order with the objective ``evaluate`` computes from scratch,
    not the one the solver returns."""
    sched = optimal_schedule(inst, tree)
    return Solution(tree, sched, evaluate(inst, sched)[0])


def reference_sch_neighbors(inst: ProblemInstance, current) -> list:
    """The SCH stream with every neighbour rebuilt from scratch: A-IT or A-ET
    of each shift of ``enumerate_shifts``, in its order, then
    ``reference_solution``, with its tabu attributes (the moved vertex (v,)
    or pair (u, v))."""
    order, starts = sequence(inst, current.schedule, True)
    it = inst.variant in IT_VARIANTS

    def rebuilt(shifted) -> Solution:
        tree = (a_it if it else a_et)(inst.net, shifted)
        return reference_solution(inst, tree)

    return [
        ((order[j],) if it else order[j], rebuilt(apply_shift(order, j, i)))
        for j, i in enumerate_shifts(starts, len(order))
    ]


def reference_net_neighbors(inst: ProblemInstance, current) -> list:
    """The NET stream with every neighbour tree rebuilt from scratch: for
    each move of ``reference_moves``, ``from_edges`` of the swapped id set
    and ``reference_solution``."""
    ids = set(current.tree.edge_ids)
    return [
        ((add, remove), reference_solution(
            inst, SpanningTree.from_edges(inst.net, ids - {remove} | {add})
        ))
        for add, remove in reference_moves(current.tree)
    ]


def reference_effective_due_dates(inst: ProblemInstance, tree: SpanningTree) -> dict:
    """Per-pair path walk, the oracle for the painted effective due dates:
    every relevant pair lowers each edge of its tree path to its due date."""
    d_e = {eid: math.inf for eid in tree.edge_ids}
    for (u, v), d in inst.pair_due_dates.items():
        for eid in tree_path(tree, u, v):
            if d < d_e[eid]:
                d_e[eid] = d
    return d_e


def reference_es_swrt(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """Quadratic ratio merging, the order oracle for ``es_swrt``: on every
    step scan all active heads in ascending order and concatenate the first
    one with the largest weight/length ratio onto the block holding its
    tree parent."""
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
    return EdgeSchedule(tree, tuple(tree.parent[v][1] for v in seq[depot]))


def reference_es_lmax(inst: ProblemInstance, tree: SpanningTree) -> EdgeSchedule:
    """Quadratic least-cost-last, the order oracle for ``es_lmax``: on every
    step scan all unplaced vertices in ascending order and place last the
    first one with no unplaced children and the largest due date."""
    depot = tree.net.depot
    pending_kids = [0] * tree.net.n
    for p, _ in tree.parent:
        if p >= 0:
            pending_kids[p] += 1
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
    return EdgeSchedule(tree, tuple(tree.parent[v][1] for v in reversed(tail)))


def reference_segments_cross(p1, p2, p3, p4) -> bool:
    """Independent exact crossing test: True iff the intersection of segments
    p1-p2 and p3-p4 holds a point that is not an endpoint of both.

    Segment one is p1 + t·r for t in [0, 1].  Non-parallel segments meet in
    at most one point, solved for exactly in rationals; collinear ones
    overlap in a t-interval, and an interval longer than a point holds
    points that are no endpoint.
    """
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def shared_endpoint(x) -> bool:
        return x in (p1, p2) and x in (p3, p4)

    r, s, qp = sub(p2, p1), sub(p4, p3), sub(p3, p1)
    denom = cross(r, s)
    if denom:
        t, u = Fraction(cross(qp, s), denom), Fraction(cross(qp, r), denom)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return False
        x = (p1[0] + t * r[0], p1[1] + t * r[1])
        return not shared_endpoint(x)
    if cross(qp, r):
        return False  # parallel on distinct lines
    rr = r[0] * r[0] + r[1] * r[1]
    t3 = Fraction(qp[0] * r[0] + qp[1] * r[1], rr)
    t4 = t3 + Fraction(s[0] * r[0] + s[1] * r[1], rr)
    lo, hi = max(min(t3, t4), 0), min(max(t3, t4), 1)
    if lo > hi:
        return False
    if lo < hi:
        return True
    return not shared_endpoint((p1[0] + lo * r[0], p1[1] + lo * r[1]))


def reference_planar_edges(points) -> list[tuple[int, int]]:
    """``planar_road``'s pairs by the plain loop: every pair in a tuple list
    stably sorted by d², ``kruskal``'s default order for the MST, then the
    shortest pairs that cross no chosen segment, each tested against every
    chosen one, up to ceil(1.75 n) pairs."""
    n = len(points)
    cand = sorted(
        (
            (i, j, (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2)
            for i, j in itertools.combinations(range(n), 2)
        ),
        key=lambda c: c[2],
    )
    chosen = [cand[k][:2] for k in kruskal(cand, _UnionFind(n))]
    target = math.ceil(1.75 * n)
    for i, j, _ in cand:
        if len(chosen) >= target:
            break
        if (i, j) not in chosen and not any(
            reference_segments_cross(points[i], points[j], points[a], points[b])
            for a, b in chosen
        ):
            chosen.append((i, j))
    return chosen


def _children(tree: SpanningTree) -> list[list[int]]:
    """Per vertex: its children in the tree, ascending."""
    kids: list[list[int]] = [[] for _ in range(tree.net.n)]
    for v, (p, _) in enumerate(tree.parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def _order_to_schedule(tree: SpanningTree, vertex_order) -> EdgeSchedule:
    return EdgeSchedule(tree, tuple(tree.parent[v][1] for v in vertex_order))


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
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
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
        path = [idx_of[eid] for eid in tree_path(tree, u, v)]
        late = edge_completion[:, path].max(axis=1) - min(d - d0, cap)
        obj = late if obj is None else np.maximum(obj, late, out=obj)
    best = int(obj.argmin())
    order = tuple(edge_ids[i] for i in perms[best])
    return int(obj[best]) - d0, EdgeSchedule(tree, order)


def reference_loc(inst: ProblemInstance, a: Solution, kind: str) -> Solution:
    """First-improvement descent that scans every tree it stands on, with no
    record of proven optima: accept the first strictly better neighbour,
    pass it through ``impr`` and scan again."""
    improved = True
    while improved:
        improved = False
        for _, sol in neighbors(inst, a, kind, Budget(600.0)):
            if sol.objective < a.objective:
                a = impr(inst, sol)
                improved = True
                break
    return a


def reference_iterated_local_search(inst: ProblemInstance, kind: str, max_iters: int, seed=0):
    """ILS for ``max_iters`` iterations with no deadline and no record:
    ``reference_loc`` from the MST, then shake the incumbent and descend."""
    p = DEFAULT_PARAMS[inst.variant][f"ils_{kind.lower()}"]
    rng = random.Random(seed)
    incumbent = best = reference_loc(inst, mst_heuristic(inst), kind)
    for _ in range(max_iters):
        incumbent = reference_loc(inst, shake(inst, incumbent, kind, p, rng), kind)
        if incumbent.objective < best.objective:
            best = incumbent
    return best


def reference_tabu_search(inst: ProblemInstance, kind: str, max_iters: int, seed=0):
    """TS for ``max_iters`` iterations with no deadline and no record: every
    iteration scans the whole neighbourhood for the first strict minimum
    and the first strict minimum among non-tabu moves."""
    tenure_min, tenure_max = DEFAULT_PARAMS[inst.variant][f"ts_{kind.lower()}"]
    rng = random.Random(seed)
    incumbent = best = reference_loc(inst, mst_heuristic(inst), kind)
    tabu = {}  # item -> the last iteration it is tabu in
    for iteration in range(1, max_iters + 1):
        best_nb = best_free = None  # (objective, tabu attributes, solution)
        for attrs, sol in neighbors(inst, incumbent, kind, Budget(600.0)):
            if best_nb is None or sol.objective < best_nb[0]:
                best_nb = (sol.objective, attrs, sol)
            if not any(tabu.get(x, -1) >= iteration for x in attrs) and (
                best_free is None or sol.objective < best_free[0]
            ):
                best_free = (sol.objective, attrs, sol)
        if best_nb is None:
            break
        if best_nb[0] < best.objective:
            incumbent = best = impr(inst, best_nb[2])
            tabu.clear()
        else:
            _, attrs, incumbent = best_free if best_free is not None else best_nb
            for item in attrs:  # a re-added item keeps the later expiry
                until = iteration + rng.randint(tenure_min, tenure_max)
                tabu[item] = max(until, tabu.get(item, -1))
    return best
