import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcon import (
    L_ETPC,
    SCH,
    Budget,
    ContractedGraph,
    GraphError,
    Network,
    SpanningTree,
    all_pairs_shortest_paths,
    cached_oracle,
    minimum_spanning_tree,
    mst_heuristic,
    neighbors,
)
from netcon import graph

from helpers import (
    attach,
    attach_data,
    contracted_adjacency,
    forest_labels,
    nx_distances,
    random_network,
    random_spanning_tree,
    recompute_contracted,
    reference_moves,
    reference_tips,
    swapped_tree,
    tip_path,
    tri,
    walk_tips,
)


class TestNetwork:
    def test_validation(self):
        with pytest.raises(GraphError):
            Network(2, ((0, 0, 1),))  # self-loop
        with pytest.raises(GraphError):
            Network(2, ((0, 1, 0),))  # non-positive length
        with pytest.raises(GraphError):
            Network(2, ((0, 1, 1), (1, 0, 2)))  # duplicate
        with pytest.raises(GraphError):
            Network(3, ((0, 1, 1),))  # disconnected
        with pytest.raises(GraphError, match="^network is not connected$"):
            Network(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))  # n - 1 edges, disconnected
        # too few edges fail on the count, before a union-find over
        # 10**10 vertices would ask for a 10**10-entry list
        message = "10000000000 vertices need at least 9999999999 edges, got 1"
        with pytest.raises(GraphError, match=message):
            Network(10**10, ((0, 1, 1),))
        with pytest.raises(GraphError):
            Network(2, ((0, 1, 1),), depot=5)
        with pytest.raises(GraphError, match="at least one vertex"):
            Network(0, ())
        for a, b in ((0, 2), (-1, 1)):
            with pytest.raises(GraphError, match="edge 0 endpoint out of range"):
                Network(2, ((a, b, 1),))

    @pytest.mark.parametrize("n, depot", [(2, 0.0), (True, 0), (2, False)],
                             ids=["depot-float", "n-bool", "depot-bool"])
    def test_n_and_depot_must_be_integers(self, n, depot):
        with pytest.raises(GraphError, match="must be an integer"):
            Network(n, ((0, 1, 1),), depot=depot)

    def test_numpy_depot_stored_as_int(self):
        net = Network(np.int64(2), ((0, 1, 1),), depot=np.int64(1))
        assert (net.n, net.depot) == (2, 1) and type(net.n) is type(net.depot) is int
        assert minimum_spanning_tree(net).parent == ((1, 0), (-1, -1))

    def test_total_length_bound(self):
        # at 4 * 2**60 the int64 Floyd-Warshall sums used to wrap to negatives
        cycle = ((0, 1, 2**60), (1, 2, 2**60), (2, 3, 2**60), (0, 3, 2**60))
        with pytest.raises(GraphError, match="total edge length"):
            Network(4, cycle)
        with pytest.raises(GraphError, match="total edge length"):
            Network(2, ((0, 1, 2**63),))
        at_limit = Network(4, cycle[:3] + ((0, 3, 2**60 - 2),))
        assert at_limit.total_length == 2**62 - 2
        dist = all_pairs_shortest_paths(at_limit)
        expected = nx_distances(at_limit)
        assert all(int(dist[u, v]) == d for (u, v), d in expected.items())
        # each min-plus update adds two full-matrix distances
        cg = ContractedGraph(at_limit)
        for x, y in ((1, 2), (0, 3), (0, 1)):
            cg.contract_edge(x, y)
            active = sorted(set(cg.label))
            ix = np.ix_(active, active)
            assert np.array_equal(cg.dist[ix], recompute_contracted(cg)[0][ix])
        assert cg.sets == 1

    def test_basic_props(self):
        net = tri()
        assert net.m == 3
        assert net.total_length == 5
        assert net.adjacency[2] == ((0, 1, 3), (1, 2, 1))


class TestShortestPaths:
    def test_tri_dist_and_tip(self):
        dist = all_pairs_shortest_paths(tri())
        assert dist[0, 2] == 2  # via 0-1-2

    def test_zero_diagonal(self):
        dist = all_pairs_shortest_paths(tri())
        assert np.all(np.diag(dist) == 0)

    def test_single_edge(self):
        net = Network(2, ((0, 1, 7),))
        assert all_pairs_shortest_paths(net)[0, 1] == 7
        assert ContractedGraph(net).path((0, 1)) == [0]

    def test_tri_paths(self):
        cg = ContractedGraph(tri())
        assert cg.path((0, 2)) == [0, 2]
        assert cg.path((0, 1)) == [0]
        assert cg.path((1, 1)) is None  # a joined pair has no path

    def test_against_independent_dijkstra(self):
        rng = random.Random(11)
        for _ in range(40):
            net = random_network(rng, rng.randint(2, 10))
            dist = all_pairs_shortest_paths(net)
            expected = nx_distances(net)
            for (u, v), d in expected.items():
                assert dist[u, v] == d

    def test_path_lengths_match_dist(self):
        rng = random.Random(12)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 9))
            dist = all_pairs_shortest_paths(net)
            cg = ContractedGraph(net)
            for u, v in itertools.combinations(range(net.n), 2):
                path = cg.path((u, v))
                assert sum(net.edges[e][2] for e in path) == dist[u, v]

    def test_reconstruct_path_smallest_predecessor(self):
        # lengths 1-2 make equal-length shortest paths frequent
        rng = random.Random(15)
        for _ in range(60):
            net = random_network(rng, rng.randint(2, 9), max_len=2, complete=rng.random() < 0.5)
            adj = net.adjacency
            tips = reference_tips(
                nx_distances(net), lambda v: [(y, w) for y, _, w in adj[v]], range(net.n)
            )

            def edge_id(p, x):
                return next(eid for y, eid, _ in adj[x] if y == p)

            # on a network with no contraction, the walk starts at the larger vertex
            cg = ContractedGraph(net)
            for u, v in itertools.combinations(range(net.n), 2):
                assert cg.path((u, v)) == walk_tips(tips, u, v, edge_id)

    def test_cached_matrix_is_read_only(self):
        # every rebuild shares the cached matrix; a contraction replaces a
        # contracted graph's matrix instead of writing it
        net = tri()
        with pytest.raises(ValueError):
            cached_oracle(net)[0, 1] = 0
        cg = ContractedGraph(net)
        assert cg.dist is cached_oracle(net)
        cg.contract_edge(0, 1)
        assert cg.dist is not cached_oracle(net)
        assert cached_oracle(net)[0, 2] == 2 and cg.dist[0, 2] == 1


class TestSpanningTree:
    def test_mst_tri(self):
        tree = minimum_spanning_tree(tri())
        assert set(tree.edge_ids) == {0, 2}
        assert tree.total_length == 2

    def test_mst_raised_length(self):
        net = Network(3, ((0, 1, 1), (0, 2, 3), (1, 2, 5)))
        tree = minimum_spanning_tree(net)
        assert set(tree.edge_ids) == {0, 1}
        assert tree.total_length == 4

    def test_mst_tree_shaped(self):
        net = Network(4, ((0, 1, 5), (1, 2, 2), (1, 3, 9)))
        assert set(minimum_spanning_tree(net).edge_ids) == {0, 1, 2}

    def test_from_edges_validation(self):
        net = tri()
        with pytest.raises(GraphError):
            SpanningTree.from_edges(net, [0])
        with pytest.raises(GraphError):
            SpanningTree.from_edges(net, [0, 1, 2])
        with pytest.raises(GraphError, match="edge ids"):
            SpanningTree.from_edges(net, (-1, 0))  # -1 used to index the last edge
        with pytest.raises(GraphError, match="edge ids"):
            SpanningTree.from_edges(net, (0, 3))
        # n - 1 distinct edges that close a cycle leave a vertex out
        kite = Network(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)))
        with pytest.raises(GraphError, match="does not span"):
            SpanningTree.from_edges(kite, [0, 1, 2])

    def test_from_edges_checks_through_parent_map(self):
        # from_edges builds its parent map with graph.parent_map, the helper
        # the SCH scan runs ES(T) on; its own checks must still hold
        kite = Network(4, ((0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)))
        with pytest.raises(GraphError, match="expected 3 distinct edges, got 2"):
            SpanningTree.from_edges(kite, [0, 3])
        with pytest.raises(GraphError, match="expected 3 distinct edges, got 3"):
            SpanningTree.from_edges(kite, [0, 3, 3])
        for ids in ([0, 1, 2], [2, 0, 1]):  # a cycle leaves vertex 3 off
            with pytest.raises(GraphError, match="does not span"):
                SpanningTree.from_edges(kite, ids)
            with pytest.raises(GraphError, match="does not span"):
                graph.parent_map(kite, ids)
        tree = SpanningTree.from_edges(kite, [3, 0, 2])
        assert tree.edge_ids == (0, 2, 3)
        assert tree.parent == ((-1, -1), (0, 0), (0, 2), (2, 3))
        assert graph.parent_map(kite, frozenset({3, 2, 0})) == list(tree.parent)

    @given(st.randoms(use_true_random=False), st.integers(1, 9))
    @settings(max_examples=100)
    def test_parent_map_ignores_edge_order(self, rng, n):
        net = random_network(rng, n)
        net = Network(n, net.edges, depot=rng.randrange(n))
        tree = random_spanning_tree(rng, net)
        ids = list(tree.edge_ids)
        rng.shuffle(ids)
        assert tuple(graph.parent_map(net, ids)) == tree.parent

    # the moves of a non-tree edge (a, b) remove the edges of the cycle it
    # closes, in order along the tree path from a to b
    def test_cycle_tri(self):
        tree = SpanningTree.from_edges(tri(), [0, 1])
        assert [move[1] for move in tree.moves()] == [0, 1]

    def test_cycle_star(self):
        net = Network(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)))
        tree = SpanningTree.from_edges(net, [0, 1, 2])
        assert [move[1] for move in tree.moves()] == [0, 1]

    def test_cycle_path(self):
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
        tree = SpanningTree.from_edges(net, [0, 1, 2])
        assert [move[1] for move in tree.moves()] == [0, 1, 2]

    def test_path_edges_and_depth(self):
        rng = random.Random(13)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 9))
            tree = random_spanning_tree(rng, net)
            removed = {}
            for add, remove, _, _ in tree.moves():
                removed.setdefault(add, []).append(remove)
            for add, path in removed.items():
                # the removed edges really lead from add's first endpoint to its second
                cur, end, _ = net.edges[add]
                for eid in path:
                    a, b, _ = net.edges[eid]
                    cur = b if cur == a else a
                assert cur == end


@st.composite
def random_trees(draw):
    """A random spanning tree of a random network: complete or sparse,
    n <= 9, random depot, lengths 1-3."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    net = random_network(rng, draw(st.integers(2, 9)), max_len=3, complete=draw(st.booleans()))
    return random_spanning_tree(rng, net)


@st.composite
def attach_runs(draw):
    """A random network (n <= 9, lengths 1-3, so paths tie often) and a
    sequence of vertex pairs on it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 9))
    net = random_network(rng, n, max_len=3, complete=draw(st.booleans()))
    vertex = st.integers(0, n - 1)
    return net, draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))


class TestExchange:
    """``hang`` applies each move to a copy of the parent map, as a NET scan
    does; a depot-rooted tree has one parent map, so the result must equal
    the parent map of the swapped edge ids."""

    @staticmethod
    def hung(tree, move) -> tuple:
        new = list(tree.parent)
        tree.hang(new, move)
        return tuple(new)

    def test_tri(self):
        tree = SpanningTree.from_edges(tri(), [0, 1])
        # cut e1 (0-2), hang 2 on e2 (1-2)
        moves = {move[:2]: move for move in tree.moves()}
        assert self.hung(tree, moves[2, 1]) == SpanningTree.from_edges(tri(), [0, 2]).parent
        assert self.hung(tree, moves[2, 1]) == ((-1, -1), (0, 0), (1, 2))

    def test_reverses_cut_path(self):
        # path 0-1-2-3 rooted at 0, swap e0 (0-1) for e3 (0-3): 3 becomes
        # the child of 0, and 2, 1 hang below it in reverse
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
        base = SpanningTree.from_edges(net, [0, 1, 2])
        move = {move[:2]: move for move in base.moves()}[3, 0]
        assert self.hung(base, move) == SpanningTree.from_edges(net, [1, 2, 3]).parent
        assert self.hung(base, move) == ((-1, -1), (2, 1), (3, 2), (0, 3))

    @given(random_trees(), st.lists(st.integers(0, 10**6), max_size=4))
    @settings(max_examples=300)
    def test_equals_rebuild(self, tree, picks):
        # along a chain of trees, each the swap of the last, every exchange
        # removes an edge of the tree path between add's endpoints, in path
        # order; one scratch list hangs each move and is restored on its
        # path, and holds the parent map of the swapped id set in between
        for pick in [*picks, None]:
            scratch = list(tree.parent)
            moves = list(tree.moves())
            assert [move[:2] for move in moves] == reference_moves(tree)
            for move in moves:
                tree.hang(scratch, move)
                assert tuple(scratch) == swapped_tree(tree, move).parent
                for v in move[2]:
                    scratch[v] = tree.parent[v]
            assert tuple(scratch) == tree.parent
            if pick is None or not moves:
                break
            tree = swapped_tree(tree, moves[pick % len(moves)])


class TestContraction:
    def test_formula_example(self):
        net = Network(3, ((0, 1, 1), (1, 2, 1), (0, 2, 5)))
        cg = ContractedGraph(net)
        z = cg.contract_edge(0, 1)
        assert z == 0
        assert cg.dist[0, 2] == 1

    def test_degenerate_two_vertices(self):
        cg = ContractedGraph(Network(2, ((0, 1, 4),)))
        cg.contract_edge(0, 1)
        assert cg.sets == 1
        assert cg.members[0] == (0, 1)

    def test_four_cycle_recompute(self):
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
        for a, b in ((0, 1), (1, 2), (2, 3), (0, 3)):
            cg = ContractedGraph(net)
            cg.contract_edge(a, b)
            dist, _ = recompute_contracted(cg)
            act = sorted(set(cg.label))
            assert np.array_equal(cg.dist[np.ix_(act, act)], dist[np.ix_(act, act)])

    def test_not_adjacent(self):
        net = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        cg = ContractedGraph(net)
        with pytest.raises(GraphError):
            cg.contract_edge(0, 3)
        cg.contract_edge(0, 1)
        with pytest.raises(GraphError):
            cg.contract_edge(0, 1)
        # {0, 1}, {2, 3} and {4, 5}: the only edge between the first two
        # joins members 1 and 3, neither of them a label
        net = Network(6, ((0, 1, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1)))
        cg = ContractedGraph(net)
        for a, b in ((0, 1), (2, 3), (4, 5)):
            cg.contract_edge(a, b)
        with pytest.raises(GraphError, match="not adjacent"):
            cg.contract_edge(0, 4)
        with pytest.raises(GraphError, match="not adjacent"):
            cg.contract_edge(5, 1)
        assert cg.contract_edge(0, 2) == 0
        assert cg.label == [0, 0, 0, 0, 4, 4] and cg.sets == 2

    def test_random_sequences_match_recompute(self):
        rng = random.Random(14)
        for _ in range(30):
            net = random_network(rng, rng.randint(3, 9))
            cg = ContractedGraph(net)
            while cg.sets > 1:
                act = sorted(set(cg.label))
                x = act[rng.randrange(len(act))]
                adj = contracted_adjacency(cg)
                if not adj[x]:
                    continue
                y = sorted(adj[x])[rng.randrange(len(adj[x]))]
                cg.contract_edge(x, y)
                dist, tips = recompute_contracted(cg)
                act = sorted(set(cg.label))
                ix = np.ix_(act, act)
                assert np.array_equal(cg.dist[ix], dist[ix])
                for a, b in itertools.combinations(act, 2):
                    assert cg.path((a, b)) == tip_path(cg, tips, a, b)

    def test_copy_is_independent(self):
        # a copy shares the matrix and the member tuples; attaching on it
        # replaces them in the copy and leaves every object of the original
        rng = random.Random(15)
        for _ in range(20):
            net = random_network(rng, rng.randint(4, 9))
            cg = ContractedGraph(net)
            a, b, _ = net.edges[0]
            cg.contract_edge(a, b)
            dist, values, adj = cg.dist, cg.dist.copy(), contracted_adjacency(cg)
            label, members, sets = cg.label.copy(), cg.members.copy(), cg.sets
            twin = cg.copy()
            assert twin.dist is dist
            x = max(twin.label)
            attach(twin, (x, min(contracted_adjacency(twin)[x])))
            assert cg.dist is dist and np.array_equal(dist, values)
            assert contracted_adjacency(cg) == adj and cg.label[x] == x
            assert (cg.label, cg.members, cg.sets) == (label, members, sets)
            assert twin.label != label and twin.members != members and twin.dist is not dist
            assert set(cg.chosen) == set() and twin.chosen
            # chosen lists join order: no edge repeats, and the list of a copy
            # is a prefix of the list after it joins more
            more = twin.copy()
            more.finish()
            assert len(set(more.chosen)) == len(more.chosen) > len(twin.chosen)
            assert more.chosen[: len(twin.chosen)] == twin.chosen
            for state in (cg, twin):
                dist, _ = recompute_contracted(state)
                active = sorted(set(state.label))
                ix = np.ix_(active, active)
                assert np.array_equal(state.dist[ix], dist[ix])

    def test_scan_leaves_cached_oracle_intact(self):
        # every SCH snapshot starts from the cached matrix, and no
        # contraction writes it
        rng = random.Random(17)
        net = random_network(rng, 9, complete=True)
        inst = attach_data(rng, net, L_ETPC, max_pairs=20)
        assert ContractedGraph(net).dist is cached_oracle(net)
        assert list(neighbors(inst, mst_heuristic(inst), SCH, Budget(600.0)))
        assert np.array_equal(cached_oracle(net), all_pairs_shortest_paths(net))

    @given(attach_runs())
    @settings(max_examples=200)
    def test_label_is_smallest_member(self, run):
        # after every attach, label names each vertex's component of the
        # forest chosen by its smallest member, and sets counts the components
        net, pairs = run
        cg = ContractedGraph(net)
        for pair in pairs:
            attach(cg, pair)
            assert cg.label == forest_labels(net, cg.chosen)
            assert cg.sets == net.n - len(cg.chosen) == len(set(cg.label))

    def test_shortest_path_edges(self):
        net = tri()
        cg = ContractedGraph(net)
        assert cg.path((0, 2)) == [0, 2]
        cg.contract_edge(0, 1)
        assert cg.path((0, 1)) is None  # a joined pair has no path
        # a distance that no edge into the target accounts for, on a
        # private copy of the shared matrix
        cg = ContractedGraph(net)
        cg.dist = cg.dist.copy()
        cg.dist[0, 2] = cg.dist[2, 0] = 99
        with pytest.raises(GraphError, match="inconsistent"):
            cg.path((0, 2))
