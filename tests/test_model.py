import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from netcon import (
    L,
    L_ETPC,
    SWRT,
    USRT,
    EdgeSchedule,
    GraphError,
    InfeasibleScheduleError,
    ModelError,
    Network,
    ProblemInstance,
    SpanningTree,
    UndefinedGapError,
    UnsupportedVariantError,
    check_it_feasible,
    evaluate,
    format_gap,
    gap,
    pairs_connection_sequence,
    vertex_recovery_sequence,
)

from netcon.neighborhoods import enumerate_shifts

from helpers import (
    group_of,
    groups,
    random_feasible_order,
    random_instance,
    random_order,
    random_spanning_tree,
    tree_path,
    tri,
)


def tri_sched(edge_ids, order):
    tree = SpanningTree.from_edges(tri(), edge_ids)
    return EdgeSchedule(tree, order)


class TestProblemInstance:
    def test_usrt_gets_unit_weights(self):
        inst = ProblemInstance(tri(), USRT)
        assert inst.weights == (1, 1, 1)

    def test_usrt_accepts_unit_weights(self):
        # dataclasses.replace passes the unit weights back in
        assert dataclasses.replace(ProblemInstance(tri(), USRT)).weights == (1, 1, 1)
        assert ProblemInstance(tri(), USRT, weights=(1, np.int64(1), 1)).weights == (1, 1, 1)

    @pytest.mark.parametrize("weights, message", [
        ((5, 7, 9), "must all be 1"),
        ((1, 1, 0), "must all be 1"),
        ((1, 1), "one value per vertex"),
    ])
    def test_usrt_rejects_other_weights(self, weights, message):
        with pytest.raises(ModelError, match=message):
            ProblemInstance(tri(), USRT, weights=weights)

    def test_variant_data_required(self):
        with pytest.raises(ModelError):
            ProblemInstance(tri(), SWRT)
        with pytest.raises(ModelError):
            ProblemInstance(tri(), L)
        with pytest.raises(ModelError):
            ProblemInstance(tri(), L_ETPC)
        with pytest.raises(ModelError):
            ProblemInstance(tri(), "bogus", weights=(1, 1, 1))

    def test_mismatched_data_rejected(self):
        with pytest.raises(ModelError):
            ProblemInstance(tri(), SWRT, weights=(1, 2))
        with pytest.raises(ModelError):
            ProblemInstance(tri(), L, vertex_due_dates=(0,))
        with pytest.raises(ModelError):
            ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 1): 3})
        with pytest.raises(ModelError):
            ProblemInstance(tri(), USRT, vertex_due_dates=(0, 0, 0))
        with pytest.raises(ModelError, match="must be nonnegative"):
            ProblemInstance(tri(), SWRT, weights=(0, -1, 2))
        with pytest.raises(ModelError, match="L takes only vertex_due_dates"):
            ProblemInstance(tri(), L, vertex_due_dates=(0, 0, 0), weights=(1, 1, 1))
        with pytest.raises(ModelError, match="L_ETPC takes only pair_due_dates"):
            ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 1): 1}, vertex_due_dates=(0, 0, 0))
        for pair in ((0, 3), (-1, 2)):
            with pytest.raises(ModelError, match="out of range"):
                ProblemInstance(tri(), L_ETPC, pair_due_dates={pair: 1})

    def test_l_needs_non_depot_vertex(self):
        # the maximum lateness over no vertices has no integer value
        with pytest.raises(ModelError, match="L needs at least one non-depot vertex"):
            ProblemInstance(Network(1, ()), L, vertex_due_dates=(0,))

    def test_pair_normalization(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(2, 1): 5, (0, 1): 3})
        assert sorted(inst.pair_due_dates) == [(0, 1), (1, 2)]
        assert inst.q == 2
        assert inst.d_min() == 3

    def test_pair_given_both_ways_rejected(self):
        # both orientations normalise to (1, 2); keeping either would drop a due date
        with pytest.raises(ModelError, match="given twice"):
            ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 0, (2, 1): 50})

    # the instance reader's rule on the library path: an integer, numpy's
    # included, that is not a bool; nothing is truncated or coerced
    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: Network(2, ((0, 1, 1.9),)), GraphError),
            (lambda: Network(2, ((0, 1, True),)), GraphError),
            (lambda: Network(2, ((0, 1.0, 1),)), GraphError),
            (lambda: ProblemInstance(tri(), SWRT, weights=(0, 1.5, 2)), ModelError),
            (lambda: ProblemInstance(tri(), SWRT, weights=(0, True, 2)), ModelError),
            (lambda: ProblemInstance(tri(), L, vertex_due_dates=(0, 2.5, 3)), ModelError),
            (lambda: ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 1): 2.7}), ModelError),
            (lambda: ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 1): "5"}), ModelError),
            (lambda: ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 1.0): 5}), ModelError),
        ],
        ids=[
            "edge-length-float",
            "edge-length-bool",
            "edge-endpoint-float",
            "swrt-weight-float",
            "swrt-weight-bool",
            "l-due-date-float",
            "letpc-due-date-float",
            "letpc-due-date-str",
            "letpc-pair-vertex-float",
        ],
    )
    def test_non_integer_rejected(self, make, error):
        with pytest.raises(error, match="must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        net = Network(2, ((0, 1, np.int64(3)),))
        assert net.edges == ((0, 1, 3),) and type(net.edges[0][2]) is int
        inst = ProblemInstance(tri(), SWRT, weights=(0, np.int32(2), 1))
        assert inst.weights == (0, 2, 1) and type(inst.weights[1]) is int

    def test_d_min_vertex(self):
        inst = ProblemInstance(tri(), L, vertex_due_dates=(99, 4, 7))
        assert inst.d_min() == 4  # depot due date ignored
        with pytest.raises(UnsupportedVariantError):
            ProblemInstance(tri(), USRT).d_min()


class TestEvaluate:
    def test_usrt_tri(self):
        inst = ProblemInstance(tri(), USRT)
        obj, times = evaluate(inst, tri_sched([0, 2], (0, 2)))
        assert times == {1: 1, 2: 2}
        assert obj == 3

    def test_lateness_tri(self):
        inst = ProblemInstance(tri(), L, vertex_due_dates=(0, 2, 2))
        obj, _ = evaluate(inst, tri_sched([0, 2], (0, 2)))
        assert obj == 0

    def test_letpc_tri(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1, (0, 1): 3})
        obj, _ = evaluate(inst, tri_sched([0, 2], (2, 0)))
        assert obj == 0
        obj2, _ = evaluate(inst, tri_sched([0, 2], (0, 2)))
        assert obj2 == 1

    def test_swrt_weighting(self):
        inst = ProblemInstance(tri(), SWRT, weights=(1, 5, 2))
        obj, _ = evaluate(inst, tri_sched([0, 2], (0, 2)))
        assert obj == 5 * 1 + 2 * 2

    def test_infeasible_raises_for_it(self):
        inst = ProblemInstance(tri(), USRT)
        with pytest.raises(InfeasibleScheduleError) as exc:
            evaluate(inst, tri_sched([0, 2], (2, 0)))
        assert exc.value.position == 0
        assert exc.value.edge_id == 2

    @pytest.mark.parametrize("order", [(0,), (0, 0), (0, 1), (0, 2, 2)],
                             ids=["short", "repeat", "foreign", "long"])
    def test_order_must_be_permutation(self, order):
        tree = SpanningTree.from_edges(tri(), [0, 2])
        with pytest.raises(ModelError, match="permutation"):
            EdgeSchedule(tree, order)

    def test_et_any_order_ok(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 2): 0})
        obj, _ = evaluate(inst, tri_sched([0, 2], (2, 0)))
        assert obj == 2


class TestFeasibility:
    def test_tri_orders(self):
        net = tri()
        assert not check_it_feasible(net, tri_sched([0, 2], (2, 0)))
        assert check_it_feasible(net, tri_sched([0, 2], (0, 2)))

    def test_star_always_feasible(self):
        net = Network(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
        tree = SpanningTree.from_edges(net, [0, 1, 2])
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            assert check_it_feasible(net, EdgeSchedule(tree, order))


class TestSequences:
    def test_recovery_tri(self):
        inst = ProblemInstance(tri(), USRT)
        assert vertex_recovery_sequence(inst, tri_sched([0, 2], (0, 2))) == (1, 2)

    def test_recovery_path(self):
        net = Network(3, ((0, 1, 1), (1, 2, 1)))
        inst = ProblemInstance(net, USRT)
        tree = SpanningTree.from_edges(net, [0, 1])
        assert vertex_recovery_sequence(inst, EdgeSchedule(tree, (0, 1))) == (1, 2)

    def test_recovery_tri_other_tree(self):
        inst = ProblemInstance(tri(), USRT)
        assert vertex_recovery_sequence(inst, tri_sched([0, 1], (0, 1))) == (1, 2)

    def test_recovery_rejects_et(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(0, 1): 0})
        with pytest.raises(UnsupportedVariantError):
            vertex_recovery_sequence(inst, tri_sched([0, 2], (0, 2)))

    def test_pairs_full_tri(self):
        inst = ProblemInstance(tri(), USRT)
        seq = pairs_connection_sequence(inst, tri_sched([0, 2], (0, 2)))
        assert groups(seq.order, seq.group_starts) == [[(0, 1)], [(0, 2), (1, 2)]]

    def test_pairs_single_edge(self):
        net = Network(2, ((0, 1, 3),))
        inst = ProblemInstance(net, USRT)
        sched = EdgeSchedule(SpanningTree.from_edges(net, [0]), (0,))
        seq = pairs_connection_sequence(inst, sched)
        assert groups(seq.order, seq.group_starts) == [[(0, 1)]]

    def test_pairs_reduced(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1})
        seq = pairs_connection_sequence(inst, tri_sched([0, 2], (0, 2)), reduced=True)
        assert groups(seq.order, seq.group_starts) == [[], [(1, 2)]]

    def test_group_of_with_empty_groups(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1})
        seq = pairs_connection_sequence(inst, tri_sched([0, 2], (0, 2)), reduced=True)
        assert seq.group_starts == (0, 0)
        assert group_of(seq.group_starts, 0) == 1  # the pair belongs to the later group
        # so the empty group before it offers no shift target
        assert list(enumerate_shifts(seq.group_starts, len(seq.order))) == []


class TestGap:
    def test_eq1(self):
        assert format_gap(gap(110, 100, None, USRT)) == "9.09"

    def test_zero(self):
        assert format_gap(gap(100, 100, None, SWRT)) == "0.00"

    def test_eq2(self):
        assert format_gap(gap(50, 40, 50, L)) == "10.00"

    def test_exact_fraction(self):
        assert gap(110, 100, None, USRT) == Fraction(1000, 110)

    def test_undefined(self):
        with pytest.raises(UndefinedGapError):
            gap(-5, -10, 0, L)
        with pytest.raises(ModelError):
            gap(90, 100, None, USRT)
        for variant in (L, L_ETPC):
            with pytest.raises(ModelError, match="needs d_min"):
                gap(50, 40, None, variant)

    def test_rounding_half_up(self):
        assert format_gap(Fraction(1, 8)) == "0.13"  # 0.125 rounds up


class TestRandomConsistency:
    def test_recovery_times_monotone(self):
        rng = random.Random(21)
        for _ in range(50):
            inst = random_instance(rng, USRT, rng.randint(2, 9))
            tree = random_spanning_tree(rng, inst.net)
            sched = random_feasible_order(rng, tree)
            _, times = evaluate(inst, sched)
            assert sorted(times) == [v for v in range(inst.net.n) if v != inst.net.depot]
            assert max(times.values()) == tree.total_length

    def test_pair_times_cover_all(self):
        rng = random.Random(22)
        for _ in range(50):
            inst = random_instance(rng, L_ETPC, rng.randint(2, 9))
            tree = random_spanning_tree(rng, inst.net)
            order = list(tree.edge_ids)
            rng.shuffle(order)
            _, times = evaluate(inst, EdgeSchedule(tree, tuple(order)))
            assert set(times) == set(sorted(inst.pair_due_dates))

    def test_pair_times_are_path_maxima(self):
        # a pair connects when the last edge of its tree path is built
        rng = random.Random(23)
        for _ in range(80):
            inst = random_instance(rng, L_ETPC, rng.randint(2, 9), max_pairs=12)
            tree = random_spanning_tree(rng, inst.net)
            sched = random_order(rng, tree)
            completion, t = {}, 0
            for eid in sched.order:
                t += inst.net.edges[eid][2]
                completion[eid] = t
            expected = {
                (u, v): max(completion[eid] for eid in tree_path(tree, u, v))
                for u, v in sorted(inst.pair_due_dates)
            }
            obj, times = evaluate(inst, sched)
            assert times == expected
            assert obj == max(expected[p] - d for p, d in inst.pair_due_dates.items())
