import copy
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from netcon import (
    L,
    L_ETPC,
    SWRT,
    USRT,
    EdgeSchedule,
    GeneratorSpec,
    Network,
    ProblemInstance,
    SizeGuardError,
    SpanningTree,
    brute_force_instance,
    es_letpc,
    es_lmax,
    es_swrt,
    evaluate,
    generate,
    iter_spanning_trees,
    optimal_schedule,
)
from netcon.tree_solvers import kernel_tables
from helpers import (
    attach_data,
    brute_force_tree,
    random_network,
    random_spanning_tree,
    reference_effective_due_dates,
    reference_es_lmax,
    reference_es_swrt,
    swapped_tree,
    tree_path,
    tri,
)


def unit_star() -> Network:
    """Depot 0 joined to vertices 1..4 by unit edges e0..e3."""
    return Network(5, tuple((0, k, 1) for k in range(1, 5)))


def solve_obj(inst, tree):
    sched = optimal_schedule(inst, tree)
    return evaluate(inst, sched)[0], sched


class TestEsSwrt:
    def test_star_weighted(self):
        # children a=1 (len 2, w 1), b=2 (len 1, w 1): short job first
        net = Network(3, ((0, 1, 2), (0, 2, 1)))
        inst = ProblemInstance(net, SWRT, weights=(1, 1, 1))
        tree = SpanningTree.from_edges(net, [0, 1])
        order, obj = es_swrt(inst, tree.parent)
        assert order == (1, 0)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 4

    def test_chain_unique_order(self):
        net = Network(3, ((0, 1, 1), (1, 2, 2)))
        inst = ProblemInstance(net, SWRT, weights=(1, 1, 10))
        tree = SpanningTree.from_edges(net, [0, 1])
        order, obj = es_swrt(inst, tree.parent)
        assert order == (0, 1)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 1 + 10 * 3

    def test_tri_usrt(self):
        inst = ProblemInstance(tri(), USRT)
        tree = SpanningTree.from_edges(tri(), [0, 2])
        order, obj = es_swrt(inst, tree.parent)
        assert order == (0, 2)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 3

    def test_wrong_variant(self):
        # each kernel guards its variants: es_swrt takes SWRT and USRT,
        # es_lmax L, es_letpc L_ETPC
        parent = SpanningTree.from_edges(tri(), [0, 2]).parent
        lmax = ProblemInstance(tri(), L, vertex_due_dates=(0, 0, 0))
        usrt = ProblemInstance(tri(), USRT)
        for es, inst in ((es_swrt, lmax), (es_lmax, usrt), (es_letpc, lmax)):
            with pytest.raises(ValueError, match="does not apply"):
                es(inst, parent)

    def test_equal_ratio_star_smallest_head_first(self):
        inst = ProblemInstance(unit_star(), USRT)
        tree = SpanningTree.from_edges(unit_star(), range(4))
        order, _ = es_swrt(inst, tree.parent)
        assert order == (0, 1, 2, 3)

    def test_equal_ratio_two_levels(self):
        # every weight/length ratio is 1; merged blocks keep ratio 1
        net = Network(5, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 4, 3)))
        inst = ProblemInstance(net, SWRT, weights=(1, 2, 1, 1, 3))
        tree = SpanningTree.from_edges(net, range(4))
        order, _ = es_swrt(inst, tree.parent)
        assert order == (0, 1, 2, 3)


class TestEsLmax:
    def test_star_due_dates(self):
        # a=1 (len 1, d 3), b=2 (len 2, d 2): b first gives lateness 0
        net = Network(3, ((0, 1, 1), (0, 2, 2)))
        inst = ProblemInstance(net, L, vertex_due_dates=(0, 3, 2))
        tree = SpanningTree.from_edges(net, [0, 1])
        order, obj = es_lmax(inst, tree.parent)
        assert order == (1, 0)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 0
        reverse = EdgeSchedule(tree, (0, 1))
        assert evaluate(inst, reverse)[0] == 1

    def test_chain_unique_order(self):
        net = Network(3, ((0, 1, 1), (1, 2, 2)))
        inst = ProblemInstance(net, L, vertex_due_dates=(0, 5, 5))
        tree = SpanningTree.from_edges(net, [0, 1])
        order, _ = es_lmax(inst, tree.parent)
        assert order == (0, 1)

    def test_equal_due_dates(self):
        rng = random.Random(31)
        for _ in range(10):
            net = random_network(rng, rng.randint(2, 8))
            tree = random_spanning_tree(rng, net)
            d = rng.randint(0, 30)
            inst = ProblemInstance(net, L, vertex_due_dates=(d,) * net.n)
            order, obj = es_lmax(inst, tree.parent)
            assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == tree.total_length - d

    def test_equal_due_star_smallest_vertex_last(self):
        inst = ProblemInstance(unit_star(), L, vertex_due_dates=(0,) * 5)
        tree = SpanningTree.from_edges(unit_star(), range(4))
        order, _ = es_lmax(inst, tree.parent)
        assert order == (3, 2, 1, 0)

    def test_equal_due_two_levels(self):
        net = Network(5, ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1)))
        inst = ProblemInstance(net, L, vertex_due_dates=(4,) * 5)
        tree = SpanningTree.from_edges(net, range(4))
        order, _ = es_lmax(inst, tree.parent)
        assert order == (1, 3, 0, 2)


@st.composite
def tied_trees(draw, values=st.integers(0, 3), min_n=1):
    """A random tree (min_n <= n <= 14, random depot, lengths 1-3) and one
    value per vertex, drawn from a small range so that ratios and due dates
    tie often.  L needs min_n=2: a non-depot vertex."""
    n = draw(st.integers(min_n, 14))
    perm = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        a, b = sorted((perm[i], perm[draw(st.integers(0, i - 1))]))
        edges.append((a, b, draw(st.integers(1, 3))))
    net = Network(n, tuple(edges), depot=draw(st.integers(0, n - 1)))
    tree = SpanningTree.from_edges(net, range(n - 1))
    return tree, tuple(draw(st.lists(values, min_size=n, max_size=n)))


# Values that a float-based key would get wrong, so they pin that the solvers
# compare exact ints: 2**53 and 2**53 + 1 round to the same float, and
# 2**1100 over a small length is beyond the float range
HUGE_VALUES = st.integers(0, 3) | st.sampled_from((2**53, 2**53 + 1, 2**1100, 2**1100 + 1))
HUGE_DUE_DATES = HUGE_VALUES | st.sampled_from((2**80, 2**80 + 1, -(2**80)))
LENGTH_CAP = 2**62 - 2  # the largest total length a Network accepts


@st.composite
def farey_sibling_trees(draw):
    """Two sibling blocks under the depot whose weight/length ratios are
    neighbouring Farey fractions (w1 * l2 - w2 * l1 = 1), the closest two
    unequal ratios with these lengths can be.  Lengths go up to 2**40 and
    weights up to 2**60; each block is a leaf or a two-edge path whose edges
    split its length and weight; vertex labels are shuffled, so either block
    may have the smaller head.  A drawn share of the networks gets a non-tree
    edge, up to 2**40 long or lifting the total length to within 3 of
    ``LENGTH_CAP``: with the total exactly l1 + l2 the two scaled ratios
    always straddle an integer, so only a longer total tests the key's scale."""
    lengths = st.integers(1, 2**40) | st.integers(2**36, 2**40)
    l1, l2 = draw(lengths), draw(lengths)
    assume(math.gcd(l1, l2) == 1)
    w1 = pow(l2, -1, l1)  # w1 * l2 = 1 (mod l1); 0 for l1 = 1
    w2 = (w1 * l2 - 1) // l1
    # every (w1 + k * l1, w2 + k * l2) solves it too; w2 must stay >= 0
    k_max = min((2**60 - w1) // l1, (2**60 - w2) // l2)
    k = draw(st.integers(0 if w2 >= 0 else 1, k_max))
    weights, edges, heads = [0], [], []  # vertex 0 is the depot before relabelling
    for w, l in ((w1 + k * l1, l1), (w2 + k * l2, l2)):
        heads.append(h := len(weights))
        if l >= 2 and draw(st.booleans()):
            a, x = draw(st.integers(1, l - 1)), draw(st.integers(0, w))
            edges += [(0, h, a), (h, h + 1, l - a)]
            weights += [x, w - x]
        else:
            edges.append((0, h, l))
            weights.append(w)
    n = len(weights)
    if draw(st.booleans()):
        # the two heads are siblings, so the edge joining them is not a tree edge
        near_cap = LENGTH_CAP - l1 - l2 - draw(st.integers(0, 3))
        edges.append((*heads, draw(st.integers(1, 2**40) | st.just(near_cap))))
    label = draw(st.permutations(range(n)))
    net = Network(
        n, tuple((label[a], label[b], l) for a, b, l in edges), depot=label[0]
    )
    tree = SpanningTree.from_edges(net, range(n - 1))
    return tree, tuple(weights[label.index(v)] for v in range(n))


class TestHeapSolversMatchReferences:
    """The heap solvers give the quadratic references' orders, edge for edge."""

    @given(tied_trees())
    @settings(max_examples=400)
    def test_swrt(self, case):
        tree, weights = case
        inst = ProblemInstance(tree.net, SWRT, weights=weights)
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order

    @given(tied_trees())
    @settings(max_examples=100)
    def test_usrt(self, case):
        inst = ProblemInstance(case[0].net, USRT)
        assert es_swrt(inst, case[0].parent)[0] == reference_es_swrt(inst, case[0]).order

    @given(tied_trees(HUGE_VALUES))
    @settings(max_examples=300)
    def test_swrt_huge_weights(self, case):
        tree, weights = case
        inst = ProblemInstance(tree.net, SWRT, weights=weights)
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order

    @given(tied_trees(min_n=2))
    @settings(max_examples=400)
    def test_lmax(self, case):
        tree, due = case
        inst = ProblemInstance(tree.net, L, vertex_due_dates=due)
        assert es_lmax(inst, tree.parent)[0] == reference_es_lmax(inst, tree).order

    @given(tied_trees(HUGE_VALUES | st.sampled_from((2**80, 2**80 + 1)), min_n=2))
    @settings(max_examples=200)
    def test_lmax_huge_due_dates(self, case):
        tree, due = case
        inst = ProblemInstance(tree.net, L, vertex_due_dates=due)
        assert es_lmax(inst, tree.parent)[0] == reference_es_lmax(inst, tree).order

    @given(farey_sibling_trees())
    @settings(max_examples=300)
    def test_swrt_farey_neighbours(self, case):
        # the integer key separates ratios 1/(l1 * l2) apart, also at the
        # largest total length, and on a tie still puts the smaller head first
        tree, weights = case
        inst = ProblemInstance(tree.net, SWRT, weights=weights)
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order

    def test_float_colliding_ratios(self):
        # float(2**53 + 1) == float(2**53), but their integer keys differ by
        # L**2 = 16: vertex 2, the larger ratio, goes before the smaller head 1
        inst = ProblemInstance(unit_star(), SWRT, weights=(0, 2**53, 2**53 + 1, 2**53, 1))
        tree = SpanningTree.from_edges(unit_star(), range(4))
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order == (1, 0, 2, 3)

    def test_overflowing_ratios(self):
        # every w/l here is beyond the float range; the ~2**1107 integer keys
        # still rank 2**1101/3 last, and 2**1100/1 and 2**1101/2 get equal
        # keys, so the smaller head goes first
        big = 2**1100
        net = Network(5, ((0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 2)))
        inst = ProblemInstance(net, SWRT, weights=(0, big, 2 * big, 2 * big, 2 * big))
        tree = SpanningTree.from_edges(net, range(4))
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order == (0, 1, 3, 2)

    def test_overflowing_merged_blocks(self):
        # a huge child merges into its small parent; the merged block's ratio
        # is beyond the float range, and its integer key is still exact
        # against a sibling's
        big = 2**1100
        net = Network(4, ((0, 1, 1), (1, 2, 1), (0, 3, 1)))
        inst = ProblemInstance(net, SWRT, weights=(0, 1, 2 * big, big))
        tree = SpanningTree.from_edges(net, range(3))
        assert es_swrt(inst, tree.parent)[0] == reference_es_swrt(inst, tree).order == (0, 1, 2)

    def test_huge_due_dates(self):
        # last come 2 (due 2**80 + 1, beats 4 on the vertex), 4, then 1 and 3
        # (due 2**80, 1 beats 3 on the vertex)
        net = Network(5, ((0, 1, 1), (1, 2, 1), (0, 3, 2), (0, 4, 1)))
        inst = ProblemInstance(net, L, vertex_due_dates=(0, 2**80, 2**80 + 1, 2**80, 2**80 + 1))
        tree = SpanningTree.from_edges(net, range(4))
        assert es_lmax(inst, tree.parent)[0] == reference_es_lmax(inst, tree).order == (2, 0, 3, 1)


@st.composite
def tied_networks(draw, values=st.integers(0, 3), min_n=1):
    """``tied_trees`` plus up to four drawn non-tree edges (lengths 1-3), so
    that the swapped trees of ``moves()`` take parent maps from path
    reversal; the tree is the first n - 1 edge ids."""
    tree, vals = draw(tied_trees(values, min_n))
    net = tree.net
    present = {tuple(sorted(e[:2])) for e in net.edges}
    spare = [p for p in itertools.combinations(range(net.n), 2) if p not in present]
    extra = draw(st.lists(st.sampled_from(spare), max_size=4, unique=True)) if spare else []
    lengths = draw(st.lists(st.integers(1, 3), min_size=len(extra), max_size=len(extra)))
    net = Network(
        net.n, net.edges + tuple((a, b, w) for (a, b), w in zip(extra, lengths)), net.depot
    )
    return SpanningTree.from_edges(net, range(net.n - 1)), vals


class TestExchangeTreesMatchReferences:
    """On every tree one edge exchange away, the heap solvers give the
    quadratic references' orders."""

    @given(tied_networks(HUGE_VALUES))
    @settings(max_examples=150)
    def test_swrt(self, case):
        tree, weights = case
        inst = ProblemInstance(tree.net, SWRT, weights=weights)
        for move in tree.moves():
            other = swapped_tree(tree, move)
            assert es_swrt(inst, other.parent)[0] == reference_es_swrt(inst, other).order

    @given(tied_networks(HUGE_DUE_DATES, min_n=2))
    @settings(max_examples=150)
    def test_lmax(self, case):
        tree, due = case
        inst = ProblemInstance(tree.net, L, vertex_due_dates=due)
        for move in tree.moves():
            other = swapped_tree(tree, move)
            assert es_lmax(inst, other.parent)[0] == reference_es_lmax(inst, other).order


class TestTablesPerInstance:
    """The scaled weights and due-date ranks belong to their instance: two
    instances of a variant on one shared network, solved alternately, and a
    ``dataclasses.replace`` copy, each match the references."""

    def test_swrt_and_lmax(self):
        rng = random.Random(7)
        net = random_network(rng, 9, extra_edges=5, max_len=6)
        pair = {
            SWRT: [
                ProblemInstance(net, SWRT, weights=tuple(rng.randint(0, 5) for _ in range(9)))
                for _ in range(2)
            ],
            L: [
                ProblemInstance(net, L, vertex_due_dates=tuple(rng.randint(-5, 30) for _ in range(9)))
                for _ in range(2)
            ],
        }
        assert pair[SWRT][0].weights != pair[SWRT][1].weights
        assert pair[L][0].vertex_due_dates != pair[L][1].vertex_due_dates
        refs = {SWRT: reference_es_swrt, L: reference_es_lmax}
        base = random_spanning_tree(rng, net)
        trees = [base] + [swapped_tree(base, move) for move in base.moves()]
        for variant, (a, b) in pair.items():
            field = "weights" if variant == SWRT else "vertex_due_dates"
            c = dataclasses.replace(a, **{field: tuple(reversed(getattr(a, field)))})
            for tree in trees:
                for inst in (a, b, c, a):
                    order, obj = ES[variant](inst, tree.parent)
                    assert order == refs[variant](inst, tree).order
                    assert obj == evaluate(inst, EdgeSchedule(tree, order))[0]


@st.composite
def tied_pair_trees(draw):
    """A tie-heavy tree (n >= 2) and an L_ETPC instance on it: a drawn share
    of the vertex pairs, due dates equal, negative or 2**80-sized."""
    tree, _ = draw(tied_trees(min_n=2))
    pairs = draw(st.lists(
        st.sampled_from(list(itertools.combinations(range(tree.net.n), 2))),
        min_size=1, unique=True,
    ))
    due = st.integers(-3, 3) | st.sampled_from((-(2**80), 2**80, 2**80 + 1))
    dates = draw(st.lists(due, min_size=len(pairs), max_size=len(pairs)))
    return tree, ProblemInstance(tree.net, L_ETPC, pair_due_dates=dict(zip(pairs, dates)))


@st.composite
def uncovered_pair_trees(draw):
    """A tie-heavy tree (n >= 3) and an L_ETPC instance whose relevant pairs
    all avoid one drawn tree edge, so that edge (and maybe others) has
    effective due date infinity; due dates include 0 and +-2**80."""
    tree, _ = draw(tied_trees(min_n=3))
    cut = draw(st.sampled_from(tree.edge_ids))
    avoiding = [
        p for p in itertools.combinations(range(tree.net.n), 2)
        if cut not in tree_path(tree, *p)
    ]
    pairs = draw(st.lists(st.sampled_from(avoiding), min_size=1, unique=True))
    due = st.integers(-3, 3) | st.sampled_from((0, -(2**80), 2**80, 2**80 + 1))
    dates = draw(st.lists(due, min_size=len(pairs), max_size=len(pairs)))
    return tree, ProblemInstance(tree.net, L_ETPC, pair_due_dates=dict(zip(pairs, dates)))


ES = {USRT: es_swrt, SWRT: es_swrt, L: es_lmax, L_ETPC: es_letpc}


class TestReturnedObjectives:
    """Each ``es_*`` returns ``evaluate``'s exact int objective of the order
    ``optimal_schedule`` gives, and the optimum over all orders up to n = 7."""

    @staticmethod
    def check(inst, tree):
        order, obj = ES[inst.variant](inst, tree.parent)
        assert type(obj) is int
        assert obj == evaluate(inst, EdgeSchedule(tree, order))[0]
        assert order == optimal_schedule(inst, tree).order
        if tree.net.n <= 7:
            assert obj == brute_force_tree(inst, tree)[0]

    @given(tied_trees())
    @settings(max_examples=100)
    def test_usrt(self, case):
        self.check(ProblemInstance(case[0].net, USRT), case[0])

    @given(tied_trees(HUGE_VALUES))
    @settings(max_examples=300)
    def test_swrt(self, case):
        tree, weights = case
        self.check(ProblemInstance(tree.net, SWRT, weights=weights), tree)

    @given(tied_trees(HUGE_DUE_DATES, min_n=2))
    @settings(max_examples=300)
    def test_lmax(self, case):
        tree, due = case
        self.check(ProblemInstance(tree.net, L, vertex_due_dates=due), tree)

    @given(tied_pair_trees())
    @settings(max_examples=200)
    def test_letpc(self, case):
        tree, inst = case
        self.check(inst, tree)

    @given(uncovered_pair_trees())
    @settings(max_examples=200)
    def test_letpc_uncovered_edges(self, case):
        tree, inst = case
        assert math.inf in reference_effective_due_dates(inst, tree).values()
        self.check(inst, tree)


def reference_letpc(inst, tree) -> tuple[tuple[int, ...], int]:
    """(order, objective) of ``es_letpc`` from ``reference_effective_due_dates``:
    edges by (due date, id), and the maximum of C_e - d_e over covered edges."""
    ref = reference_effective_due_dates(inst, tree)
    order = tuple(sorted(tree.edge_ids, key=lambda e: (ref[e], e)))
    done = itertools.accumulate(tree.net.lengths[e] for e in order)
    return order, max(t - ref[e] for e, t in zip(order, done) if ref[e] != math.inf)


class TestEsLetpc:
    @given(tied_pair_trees() | uncovered_pair_trees())
    @settings(max_examples=300)
    def test_order_by_reference_due_dates(self, case):
        tree, inst = case
        ref = reference_effective_due_dates(inst, tree)
        expected = tuple(sorted(tree.edge_ids, key=lambda e: (ref[e], e)))
        assert es_letpc(inst, tree.parent)[0] == expected

    @given(tied_pair_trees())
    @settings(max_examples=400)
    def test_painted_due_dates_match_reference(self, case):
        # the painting walk's objective and order: the maximum of C_e - d_e
        # over the covered edges, sorted by the reference due dates
        tree, inst = case
        assert es_letpc(inst, tree.parent) == reference_letpc(inst, tree)

    def test_tri_pairs(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1, (0, 1): 3})
        tree = SpanningTree.from_edges(tri(), [0, 2])
        order, obj = es_letpc(inst, tree.parent)
        assert order == (2, 0)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 0

    def test_single_spanning_pair(self):
        rng = random.Random(32)
        for _ in range(10):
            net = random_network(rng, rng.randint(3, 8))
            tree = random_spanning_tree(rng, net)
            leaves = [v for v in range(net.n) if v != net.depot]
            u, v = rng.sample(leaves + [net.depot], 2)
            path = tree_path(tree, u, v)
            if len(path) != net.n - 1:
                continue  # only the whole-tree case is asserted
            d = rng.randint(0, 10)
            inst = ProblemInstance(net, L_ETPC, pair_due_dates={(u, v): d})
            order, obj = es_letpc(inst, tree.parent)
            assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == tree.total_length - d

    def test_leaf_edge_first(self):
        # q=1 relevant pair = endpoints of one leaf edge: that edge goes first
        net = Network(3, ((0, 1, 4), (1, 2, 6)))
        inst = ProblemInstance(net, L_ETPC, pair_due_dates={(1, 2): 5})
        tree = SpanningTree.from_edges(net, [0, 1])
        order, obj = es_letpc(inst, tree.parent)
        assert order == (1, 0)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 6 - 5

    def test_equal_due_dates_out_of_order(self):
        # pairs with due date 3 come in non-sorted order, one reversed; the
        # painting takes them in that order, after the due date 1 pair
        net = Network(6, ((0, 1, 2), (1, 2, 1), (1, 3, 3), (0, 4, 1), (4, 5, 2)))
        due = {(3, 5): 3, (2, 4): 1, (4, 1): 3, (0, 2): 3, (2, 3): 7}
        inst = ProblemInstance(net, L_ETPC, pair_due_dates=due)
        assert inst.pairs_by_due_date == (
            ((2, 4), 1), ((3, 5), 3), ((1, 4), 3), ((0, 2), 3), ((2, 3), 7)
        )
        tree = SpanningTree.from_edges(net, range(5))
        painted = reference_effective_due_dates(inst, tree)
        order, obj = es_letpc(inst, tree.parent)
        assert order == tuple(sorted(tree.edge_ids, key=lambda e: (painted[e], e)))
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == brute_force_tree(inst, tree)[0]

    def test_due_dates_above_total_length(self):
        # effective due dates are real due dates however large; a cap at the
        # total length + 1 tied e0 with e1 here and put e0 first
        path = Network(3, ((0, 1, 1), (1, 2, 1)))
        inst = ProblemInstance(path, L_ETPC, pair_due_dates={(0, 2): 10**6, (1, 2): 5})
        tree = SpanningTree.from_edges(path, [0, 1])
        order, obj = es_letpc(inst, tree.parent)
        assert order == (1, 0)
        assert evaluate(inst, EdgeSchedule(tree, order))[0] == obj == 1 - 5


class TestCutoff:
    """A kernel called with a cutoff returns None iff the objective is >= the
    cutoff, and otherwise the uncut call's (order, objective)."""

    @staticmethod
    def check(inst, tree, reference):
        es = ES[inst.variant]
        full = es(inst, tree.parent)
        assert full == reference
        obj = full[1]
        for cutoff in (obj - 1, obj, obj + 1, -math.inf, math.inf):
            cut = es(inst, tree.parent, cutoff)
            assert cut is None if obj >= cutoff else cut == full

    @staticmethod
    def scheduled(inst, sched):
        return sched.order, evaluate(inst, sched)[0]

    @given(tied_trees(HUGE_DUE_DATES, min_n=2))
    @settings(max_examples=300)
    def test_lmax(self, case):
        tree, due = case
        inst = ProblemInstance(tree.net, L, vertex_due_dates=due)
        self.check(inst, tree, self.scheduled(inst, reference_es_lmax(inst, tree)))

    @given(tied_pair_trees() | uncovered_pair_trees())
    @settings(max_examples=300)
    def test_letpc(self, case):
        tree, inst = case
        self.check(inst, tree, reference_letpc(inst, tree))

    @given(tied_trees(HUGE_VALUES))
    @settings(max_examples=100)
    def test_swrt(self, case):
        tree, weights = case
        inst = ProblemInstance(tree.net, SWRT, weights=weights)
        self.check(inst, tree, self.scheduled(inst, reference_es_swrt(inst, tree)))


@st.composite
def exchange_instances(draw, variant):
    """A random spanning tree of a complete network (lengths 1-3) or of a
    ``planar_road`` one, and an instance of ``variant`` on it whose weights
    or due dates tie often and reach beyond 2**63."""
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        net = random_network(rnd, draw(st.integers(2, 8)), complete=True, max_len=3)
    else:
        spec = GeneratorSpec("planar_road", draw(st.integers(2, 16)), draw(st.integers(0, 999)), SWRT)
        net = generate(spec).net
    values = draw(st.lists(HUGE_DUE_DATES if variant == L else HUGE_VALUES, min_size=net.n, max_size=net.n))
    if variant == L:
        inst = ProblemInstance(net, L, vertex_due_dates=values)
    else:
        inst = ProblemInstance(net, variant, weights=values if variant == SWRT else None)
    return inst, random_spanning_tree(rnd, net)


class TestPatchedTables:
    """The kernel on a tree's parent map with one move hung, given the
    tree's ``kernel_tables`` and the move's path, equals the from-scratch
    call and the quadratic reference at every cutoff; one set of tables
    serves every move of the tree and is never written."""

    @given(st.sampled_from((USRT, SWRT, L)).flatmap(exchange_instances))
    @settings(max_examples=300, deadline=None)
    def test_every_move(self, case):
        inst, tree = case
        es = ES[inst.variant]
        reference = reference_es_lmax if inst.variant == L else reference_es_swrt
        tables = kernel_tables(inst, tree.parent)
        unchanged, scratch = copy.deepcopy(tables), list(tree.parent)
        for move in tree.moves():
            tree.hang(scratch, move)
            full = TestCutoff.scheduled(inst, reference(inst, swapped_tree(tree, move)))
            for cutoff in (full[1] - 1, full[1], full[1] + 1, -math.inf, math.inf):
                want = None if full[1] >= cutoff else full
                assert es(inst, scratch, cutoff, tables, move[2]) == es(inst, scratch, cutoff) == want
            for v in move[2]:
                scratch[v] = tree.parent[v]
        assert tables == unchanged


class TestBruteForceTree:
    def test_single_edge(self):
        net = Network(2, ((0, 1, 3),))
        inst = ProblemInstance(net, USRT)
        tree = SpanningTree.from_edges(net, [0])
        obj, sched = brute_force_tree(inst, tree)
        assert obj == 3 and sched.order == (0,)

    def test_size_guard(self):
        rng = random.Random(33)
        net = random_network(rng, 11)
        inst = ProblemInstance(net, USRT)
        with pytest.raises(SizeGuardError):
            brute_force_tree(inst, random_spanning_tree(rng, net))

    @pytest.mark.parametrize("variant", [USRT, SWRT, L])
    def test_matches_exact_solver_it(self, variant):
        rng = random.Random(34)
        for _ in range(60):
            net = random_network(rng, rng.randint(2, 8))
            inst = attach_data(rng, net, variant)
            tree = random_spanning_tree(rng, net)
            exact_obj, exact_sched = solve_obj(inst, tree)
            brute_obj, _ = brute_force_tree(inst, tree)
            assert exact_obj == brute_obj
            assert evaluate(inst, exact_sched)[0] == brute_obj

    def test_matches_exact_solver_et(self):
        rng = random.Random(35)
        for _ in range(60):
            net = random_network(rng, rng.randint(2, 7))
            inst = attach_data(rng, net, L_ETPC)
            tree = random_spanning_tree(rng, net)
            exact_obj, _ = solve_obj(inst, tree)
            brute_obj, _ = brute_force_tree(inst, tree)
            assert exact_obj == brute_obj

    def test_due_dates_far_beyond_lengths(self):
        # the sweeps start from the first real lateness, not from a floor,
        # and stay exact past int64
        path = Network(3, ((0, 1, 1), (1, 2, 1)))
        tree = SpanningTree.from_edges(path, [0, 1])
        inst = ProblemInstance(path, L, vertex_due_dates=(2 * 10**18,) * 3)
        assert brute_force_tree(inst, tree)[0] == -1999999999999999998
        assert solve_obj(inst, tree)[0] == -1999999999999999998
        for big in (10**6, 2 * 10**18, 2**63, 2**80):
            inst = ProblemInstance(path, L_ETPC, pair_due_dates={(0, 2): big, (1, 2): 5})
            assert brute_force_tree(inst, tree)[0] == solve_obj(inst, tree)[0] == 1 - 5
        inst = ProblemInstance(path, L_ETPC, pair_due_dates={(0, 2): 2**63, (1, 2): 2**63 + 7})
        assert brute_force_tree(inst, tree)[0] == solve_obj(inst, tree)[0] == 2 - 2**63

    def test_matches_exact_solver_et_wide_due_dates(self):
        # due dates below, inside and far above the total length
        rng = random.Random(36)
        for _ in range(60):
            net = random_network(rng, rng.randint(2, 6))
            pairs = list(itertools.combinations(range(net.n), 2))
            chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
            due = {
                p: rng.choice((-(2**70), -3, 0, 7, net.total_length + 1, 10**9, 2**63))
                + rng.randint(0, 5)
                for p in chosen
            }
            inst = ProblemInstance(net, L_ETPC, pair_due_dates=due)
            tree = random_spanning_tree(rng, net)
            assert solve_obj(inst, tree)[0] == brute_force_tree(inst, tree)[0]


class TestSpanningTreeEnumeration:
    def test_tri_has_three(self):
        assert list(iter_spanning_trees(tri())) == [(0, 1), (0, 2), (1, 2)]

    def test_k4_cayley(self):
        rng = random.Random(36)
        net = random_network(rng, 4, complete=True)
        assert sum(1 for _ in iter_spanning_trees(net)) == 16

    def test_tree_shaped(self):
        net = Network(3, ((0, 1, 1), (1, 2, 1)))
        assert list(iter_spanning_trees(net)) == [(0, 1)]


class TestBruteForceInstance:
    def test_tri_usrt(self):
        obj, sched = brute_force_instance(ProblemInstance(tri(), USRT))
        assert obj == 3
        assert set(sched.tree.edge_ids) == {0, 2}

    def test_tri_letpc(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1, (0, 1): 3})
        obj, _ = brute_force_instance(inst)
        assert obj == 0

    def test_tree_shaped_equals_tree_brute(self):
        net = Network(4, ((0, 1, 2), (1, 2, 3), (1, 3, 1)))
        inst = ProblemInstance(net, USRT)
        tree = SpanningTree.from_edges(net, [0, 1, 2])
        assert brute_force_instance(inst)[0] == brute_force_tree(inst, tree)[0]

    def test_size_guard(self):
        rng = random.Random(37)
        net = random_network(rng, 9, extra_edges=8)
        with pytest.raises(SizeGuardError):
            brute_force_instance(ProblemInstance(net, USRT))

    def test_never_above_any_tree(self):
        rng = random.Random(38)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 6))
            inst = attach_data(rng, net, SWRT)
            opt, _ = brute_force_instance(inst)
            tree = random_spanning_tree(rng, net)
            assert opt <= solve_obj(inst, tree)[0]
