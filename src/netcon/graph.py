"""Graph primitives: networks, all-pairs shortest paths, spanning trees, contraction.

All lengths and distances are exact integers; there are no floating-point
tolerances anywhere in this module.
"""
from __future__ import annotations

import bisect
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GraphError(ValueError):
    """Invalid graph data or a violated structural precondition."""


def _as_int(value, what: str, error=GraphError) -> int:
    """``value`` as an int if it is an integer (numpy's included) and not a
    bool, the rule the instance reader applies; ``error`` otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class Network:
    """Undirected connected network with positive integer edge lengths.

    ``edges`` is a tuple of ``(a, b, length)`` triples; edge ids are positions
    in this tuple.  ``depot`` is the server's start vertex.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    depot: int = 0

    def __post_init__(self):
        edges = tuple(
            (_as_int(a, "edge endpoint"), _as_int(b, "edge endpoint"), _as_int(w, "edge length"))
            for a, b, w in self.edges
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n", _as_int(self.n, "vertex count"))
        object.__setattr__(self, "depot", _as_int(self.depot, "depot"))
        if self.n < 1:
            raise GraphError("network needs at least one vertex")
        if not 0 <= self.depot < self.n:
            raise GraphError(f"depot {self.depot} out of range")
        seen = set()
        for eid, (a, b, w) in enumerate(self.edges):
            if a == b:
                raise GraphError(f"edge {eid} is a self-loop")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise GraphError(f"edge {eid} endpoint out of range")
            if w <= 0:
                raise GraphError(f"edge {eid} has non-positive length {w}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge between {key[0]} and {key[1]}")
            seen.add(key)
        # every int64 distance sum (Floyd-Warshall, contraction) adds two
        # entries of at most total_length + 1
        if 2 * (self.total_length + 1) >= 2**63:
            raise GraphError(
                f"total edge length {self.total_length} exceeds 2**62 - 2, "
                "the largest that int64 distance sums can hold"
            )
        # connectivity; too few edges fail before the union-find allocates n slots
        if self.m < self.n - 1:
            raise GraphError(
                f"network is not connected: {self.n} vertices need at least "
                f"{self.n - 1} edges, got {self.m}"
            )
        uf = _UnionFind(self.n)
        for a, b, _ in self.edges:
            uf.union(a, b)
        if uf.sets != 1:
            raise GraphError("network is not connected")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once: every cached_oracle lookup hashes
        return hash((self.n, self.edges, self.depot))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def total_length(self) -> int:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Edge lengths by edge id, then a 0 that the depot's parent edge id -1 reads."""
        return tuple(w for _, _, w in self.edges) + (0,)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge id, length), neighbors ascending."""
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for eid, (a, b, w) in enumerate(self.edges):
            adj[a].append((b, eid, w))
            adj[b].append((a, eid, w))
        return tuple(tuple(sorted(lst)) for lst in adj)


class _UnionFind:
    """Disjoint sets; the canonical representative is the smallest member id.
    ``sets`` counts the sets."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sets = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.sets -= 1
        return True


def _floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """In-place Floyd-Warshall on an int64 distance matrix."""
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def all_pairs_shortest_paths(net: Network) -> np.ndarray:
    """The int64 n-by-n matrix of shortest-path distances."""
    big = np.int64(net.total_length + 1)
    dist = np.full((net.n, net.n), big, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for a, b, w in net.edges:
        dist[a, b] = dist[b, a] = w
    return _floyd_warshall(dist)


@lru_cache(maxsize=64)
def cached_oracle(net: Network) -> np.ndarray:
    """The network's distance matrix, computed once and shared, so read-only."""
    dist = all_pairs_shortest_paths(net)
    dist.flags.writeable = False
    return dist


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree given by edge ids plus a parent map rooted at the depot."""

    net: Network
    edge_ids: tuple[int, ...]
    parent: tuple[tuple[int, int], ...]  # vertex -> (parent vertex, edge id); depot -> (-1, -1)

    @classmethod
    def from_edges(cls, net: Network, edge_ids) -> "SpanningTree":
        ids = tuple(sorted(edge_ids))
        if len(ids) != net.n - 1 or len(set(ids)) != len(ids):
            raise GraphError(f"expected {net.n - 1} distinct edges, got {len(ids)}")
        if ids and not 0 <= ids[0] <= ids[-1] < net.m:
            raise GraphError(f"edge ids must lie in [0, {net.m})")
        return cls(net, ids, tuple(parent_map(net, ids)))

    def moves(self):
        """Every edge exchange as ``(add, remove, path, y)``: non-tree edges
        ``add`` ascending, and for each the tree edges ``remove`` on the
        cycle ``add`` closes, in order along the tree path between its ends.

        ``remove`` cuts off the subtree under its lower endpoint ``c``, which
        holds exactly one endpoint ``x`` of ``add``; ``path`` lists the
        vertices from ``x`` up to ``c``, and ``y`` is ``add``'s other endpoint.
        """
        net, parent = self.net, self.parent
        in_tree = set(self.edge_ids)
        for add, (a, b, _) in enumerate(net.edges):
            if add in in_tree:
                continue
            side_a, side_b = self._sides(a, b)
            for i in range(len(side_a)):  # a-side cuts bottom-up
                yield add, parent[side_a[i]][1], side_a[: i + 1], b
            for i in reversed(range(len(side_b))):  # then b-side cuts top-down
                yield add, parent[side_b[i]][1], side_b[: i + 1], a

    def hang(self, new: list, move) -> None:
        """Apply ``move`` to ``new``, a list equal to ``parent`` on its path:
        the path's first vertex hangs on ``add`` at ``y`` and the pointers
        along the path reverse.  Writing ``parent[v]`` back undoes it."""
        add, _, path, y = move
        parent = self.parent
        new[path[0]] = (y, add)
        for child, v in zip(path, path[1:]):
            new[v] = (child, parent[child][1])

    def exchanged(self, move) -> "SpanningTree":
        """The tree a move leads to, as ``from_edges`` of the swapped ids."""
        add, remove, _, _ = move
        new = list(self.parent)
        self.hang(new, move)
        swapped = list(self.edge_ids)
        del swapped[bisect.bisect_left(swapped, remove)]
        bisect.insort(swapped, add)
        return SpanningTree(self.net, tuple(swapped), tuple(new))

    @cached_property
    def depth(self) -> tuple[int, ...]:
        return tuple(tree_depths(self.parent, self.net.depot))

    @cached_property
    def total_length(self) -> int:
        return sum(self.net.edges[eid][2] for eid in self.edge_ids)

    def _sides(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """The vertices from ``u`` and from ``v`` up to their lowest common
        ancestor, each list starting at its endpoint; neither holds the
        ancestor."""
        depth, parent = self.depth, self.parent
        side_u, side_v = [], []
        while depth[u] > depth[v]:
            side_u.append(u)
            u = parent[u][0]
        while depth[v] > depth[u]:
            side_v.append(v)
            v = parent[v][0]
        while u != v:
            side_u.append(u)
            side_v.append(v)
            u, v = parent[u][0], parent[v][0]
        return side_u, side_v


def parent_map(net: Network, edge_ids) -> list[tuple[int, int]]:
    """The parent map (vertex -> (parent vertex, edge id), depot -> (-1, -1))
    of the edges ``edge_ids`` hung from the depot, in any order; raises
    GraphError if they leave a vertex off the depot's component.  A tree's
    parent map is unique, so the order of ``edge_ids`` is never seen."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.n)]
    edges = net.edges
    for eid in edge_ids:
        a, b, _ = edges[eid]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    parent = [None] * net.n
    parent[net.depot] = (-1, -1)
    reached = [net.depot]
    for v in reached:  # grows as it is read: breadth first
        for w, eid in adj[v]:
            if parent[w] is None:
                parent[w] = (v, eid)
                reached.append(w)
    if len(reached) != net.n:
        raise GraphError("edge set does not span all vertices")
    return parent


def tree_depths(parent, depot: int) -> list[int]:
    """Each vertex's depth under a parent map (vertex -> (parent vertex,
    edge id)) rooted at ``depot``."""
    d = [-1] * len(parent)
    d[depot] = 0
    for v in range(len(parent)):
        chain, x = [], v
        while d[x] < 0:
            chain.append(x)
            x = parent[x][0]
        for y in reversed(chain):
            d[y] = d[x] + 1
            x = y
    return d


def kruskal(edges, uf: _UnionFind, edge_ids=None) -> list[int]:
    """Ids (positions in ``edges``, a sequence of ``(a, b, length)``) of the
    edges that join two sets of ``uf``, taken in the order ``edge_ids``
    (default: ascending (length, id)) and united in ``uf``; stops once one
    set is left."""
    if edge_ids is None:
        # a stable sort of ascending ids breaks length ties by id
        edge_ids = sorted(range(len(edges)), key=lambda eid: edges[eid][2])
    chosen = []
    for eid in edge_ids:
        if uf.sets == 1:
            break
        a, b, _ = edges[eid]
        if uf.union(a, b):
            chosen.append(eid)
    return chosen


def minimum_spanning_tree(net: Network) -> SpanningTree:
    """Kruskal with ascending (length, edge id) order for deterministic ties."""
    return SpanningTree.from_edges(net, kruskal(net.edges, _UnionFind(net.n)))


def _walk_back(t: int, d, pred) -> list[int]:
    """Edge ids of the canonical shortest path from the source to ``t``, in
    order from the source.

    ``d`` holds distances from the source, 0 only at the source.
    ``pred(x)`` is the predecessor step into ``x``: the smallest
    ``(label, edge id)`` over the tight edges into ``x``, those with
    ``d[label] + length == d[x]``, or None if none is tight.  Only a
    shortest parallel edge can be tight, since ``d[x] <= d[p] + length``.
    """
    path = []
    cur = t
    while d[cur]:
        step = pred(cur)
        if step is None:  # impossible for consistent state
            raise GraphError("distance matrix inconsistent with adjacency")
        cur, eid = step
        path.append(eid)
    path.reverse()
    return path


class ContractedGraph:
    """A network under repeated edge contraction with maintained distances,
    and the state of A-ET after a prefix of a pairs order.

    ``label[v]`` names v's super-vertex by its smallest member, ``members``
    maps each label to the tuple of its super-vertex's vertices, and ``sets``
    counts the super-vertices.  ``chosen`` holds the edges ``join`` has
    contracted so far, which alone determine the state.  ``dist`` is a full
    n-by-n matrix of which only rows/columns of labels are meaningful: the
    shared read-only ``cached_oracle`` until the first contraction, then a
    new matrix per contraction.  A merge stores a new member tuple and a new
    matrix and writes neither old one, so a copy shares them and costs O(n).
    The super-vertex adjacency is read from the network's through
    ``members``; no parallel edge or loop is kept.
    """

    def __init__(self, net: Network):
        self.net = net
        self.label = list(range(net.n))
        self.members = [(v,) for v in range(net.n)]
        self.sets = net.n
        self.dist = cached_oracle(net)
        self.chosen: set[int] = set()

    def copy(self) -> "ContractedGraph":
        """An independent copy of this state."""
        new = object.__new__(ContractedGraph)
        new.net, new.dist, new.sets = self.net, self.dist, self.sets
        new.label = self.label.copy()
        new.members = self.members.copy()
        new.chosen = self.chosen.copy()
        return new

    def contract_edge(self, x: int, y: int) -> int:
        """Merge adjacent super-vertices x and y; returns the merged id.

        The distances take one rank-1 min-plus update with
        dz = min(d[x], d[y]), the distances to the merged vertex.  The
        update is exact: a cross term d(a, x) + d(x, b) is never below
        d(a, b) by the triangle inequality, and dz(z) = 0 makes row z dz.
        """
        label, members, adjacency = self.label, self.members, self.net.adjacency
        x, y = label[x], label[y]
        small, other = (x, y) if len(members[x]) <= len(members[y]) else (y, x)
        if x == y or not any(label[w] == other for m in members[small] for w, _, _ in adjacency[m]):
            raise GraphError(f"vertices {x} and {y} are not adjacent super-vertices")
        z, gone = min(x, y), max(x, y)
        dist = self.dist
        dz = np.minimum(dist[x], dist[y])
        merged = dz[:, None] + dz
        self.dist = np.minimum(dist, merged, out=merged)
        for m in members[gone]:
            label[m] = z
        members[z], members[gone] = members[z] + members[gone], ()
        self.sets -= 1
        return z

    def path(self, pair):
        """Original edge ids of the canonical shortest path between the
        super-vertices of the pair, or None if the pair is joined already.

        The canonical rule (``_walk_back``) walks back from the larger
        label: the predecessor of ``w`` is the smallest adjacent label ``p``
        with ``dist[s, p] + len(p, w) == dist[s, w]``, where ``s`` is the
        smaller label.  An edge inside a super-vertex is never tight, since
        lengths are positive.
        """
        label, members, adjacency = self.label, self.members, self.net.adjacency
        ra, rb = label[pair[0]], label[pair[1]]
        if ra == rb:
            return None
        d = self.dist[min(ra, rb)].tolist()
        return _walk_back(
            max(ra, rb),
            d,
            lambda x: min(
                (
                    (label[y], eid)
                    for m in members[x]
                    for y, eid, length in adjacency[m]
                    if d[label[y]] + length == d[x]
                ),
                default=None,
            ),
        )

    def join(self, path):
        """Contract ``path``, a ``path(pair)`` of this state.  Lengths are
        positive, so the path meets each super-vertex once, and each of its
        edges joins two super-vertices when its turn comes."""
        self.chosen.update(path)
        edges = self.net.edges
        for eid in path:
            a, b, _ = edges[eid]
            self.contract_edge(a, b)

    def probe(self, pair):
        """``(path, partition after joining it)`` for ``path(pair)``, or None
        if the pair is joined already; this state is left as it is.  The
        super-vertices on the path merge into the one named by their
        smallest label."""
        path = self.path(pair)
        if path is None:
            return None
        label, members, edges = self.label, self.members, self.net.edges
        merged = {label[x] for eid in path for x in edges[eid][:2]}
        z = min(merged)
        merged.remove(z)
        after = array("I", label)
        for r in merged:
            for m in members[r]:
                after[m] = z
        return path, after.tobytes()

    def partition(self) -> bytes:
        """The labels as bytes: the partition, which decides what is added next."""
        return array("I", self.label).tobytes()

    def finish(self):
        """Kruskal completes the forest a reduced sequence leaves: its next
        edge is the shortest surviving inter-component edge (tie: edge id).
        Only ``chosen`` is read after this."""
        if self.sets == 1:
            return
        uf = _UnionFind(self.net.n)
        for v, r in enumerate(self.label):
            uf.union(v, r)
        self.chosen.update(kruskal(self.net.edges, uf))
