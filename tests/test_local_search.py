import dataclasses
import math
import random

import pytest

from netcon import (
    FAMILIES,
    L,
    L_ETPC,
    NET,
    SCH,
    USRT,
    VARIANTS,
    Budget,
    GeneratorSpec,
    Network,
    ProblemInstance,
    SpanningTree,
    generate,
    impr,
    loc,
    mst_heuristic,
    mst_loc,
    neighbors,
    solve_tree,
)

from helpers import (
    random_instance,
    random_spanning_tree,
    reference_loc,
    reference_net_neighbors,
    reference_sch_neighbors,
    tri,
)


class CutBudget(Budget):
    """A 600 s budget whose deadline passes at its ``cut``-th check, counted from 0."""

    def __init__(self, cut=math.inf):
        super().__init__(600.0)
        self.cut, self.checks = cut, 0

    def expired(self) -> bool:
        self.checks += 1
        return self.checks > self.cut


class TestImpr:
    def test_tri_improves(self):
        inst = ProblemInstance(tri(), USRT)
        start = solve_tree(inst, SpanningTree.from_edges(tri(), [1, 2]))
        assert start.objective == 7
        out = impr(inst, start)
        assert out.objective == 3
        assert set(out.tree.edge_ids) == {0, 2}

    def test_fixed_point_unchanged(self):
        inst = ProblemInstance(tri(), USRT)
        best = solve_tree(inst, SpanningTree.from_edges(tri(), [0, 2]))
        out = impr(inst, best)
        assert out.objective == best.objective
        assert out.tree.edge_ids == best.tree.edge_ids

    def test_never_worse_and_idempotent(self):
        rng = random.Random(51)
        for variant in (USRT, L_ETPC):
            for _ in range(25):
                inst = random_instance(rng, variant, rng.randint(2, 8))
                start = solve_tree(inst, random_spanning_tree(rng, inst.net))
                out = impr(inst, start)
                assert out.objective <= start.objective
                again = impr(inst, out)
                assert again.objective == out.objective


class TestLoc:
    def test_tri_reaches_optimum(self):
        inst = ProblemInstance(tri(), USRT)
        start = solve_tree(inst, SpanningTree.from_edges(tri(), [1, 2]))
        out = loc(inst, start, NET, Budget(600.0))
        assert out.objective == 3

    def test_local_optimality_postcondition(self):
        rng = random.Random(52)
        for variant in (USRT, L_ETPC):
            for kind in (NET, SCH):
                inst = random_instance(rng, variant, 6)
                start = solve_tree(inst, random_spanning_tree(rng, inst.net))
                out = loc(inst, start, kind, Budget(600.0))
                assert all(
                    sol.objective >= out.objective
                    for _, sol in neighbors(inst, out, kind, Budget(600.0))
                )

    def test_start_at_optimum_stays(self):
        inst = ProblemInstance(tri(), USRT)
        best = solve_tree(inst, SpanningTree.from_edges(tri(), [0, 2]))
        assert loc(inst, best, NET, Budget(600.0)).objective == 3

    @pytest.mark.parametrize("kind", (NET, SCH))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scan_cut_by_deadline_records_nothing(self, variant, kind):
        # an uncut descent checks the deadline ``checks`` times, the last
        # one after its final scan; every earlier check is in a scan
        rng = random.Random(55)
        inst = random_instance(rng, variant, 7)
        start = solve_tree(inst, random_spanning_tree(rng, inst.net))
        uncut = CutBudget()
        loc(inst, start, kind, uncut)
        assert uncut.optimum is not None and uncut.checks >= 2
        for cut in sorted({0, uncut.checks // 2, uncut.checks - 2}):
            budget = CutBudget(cut)
            assert loc(inst, start, kind, budget).objective <= start.objective
            assert budget.optimum is None and budget.optimum_neighbour is None
        assert loc(inst, start, kind, Budget(600.0)) == reference_loc(inst, start, kind)

    @pytest.mark.parametrize("kind", (NET, SCH))
    @pytest.mark.parametrize("variant", (L, L_ETPC))
    def test_cut_scan_records_reference_first_minimum(self, variant, kind):
        # loc's scans skip neighbours at or above the first minimum so far;
        # the record is still the first minimum of the full stream.  Lengths
        # in {1, 2} and due dates in 0..3 make objectives one apart
        rng = random.Random(57)
        insts = [random_instance(rng, variant, 7) for _ in range(4)]
        for family in FAMILIES:
            inst = generate(GeneratorSpec(family, 9, 2, variant))
            net = Network(9, tuple((a, b, 1 + w % 2) for a, b, w in inst.net.edges), inst.net.depot)
            if variant == L:
                due = {"vertex_due_dates": tuple(d % 4 for d in inst.vertex_due_dates)}
            else:
                due = {"pair_due_dates": {p: d % 4 for p, d in inst.pair_due_dates.items()}}
            insts += [inst, dataclasses.replace(inst, net=net, **due)]
        for inst in insts:
            start = solve_tree(inst, random_spanning_tree(rng, inst.net))
            budget = Budget(600.0)
            out = loc(inst, start, kind, budget)
            assert out == reference_loc(inst, start, kind)
            reference = (reference_net_neighbors if kind == NET else reference_sch_neighbors)(inst, out)
            assert budget.optimum_neighbour == min(reference, key=lambda nb: nb[1].objective, default=None)


class TestMstHeuristics:
    def test_tri_usrt(self):
        inst = ProblemInstance(tri(), USRT)
        sol = mst_heuristic(inst)
        assert set(sol.tree.edge_ids) == {0, 2}
        assert sol.objective == 3

    def test_tri_letpc(self):
        inst = ProblemInstance(tri(), L_ETPC, pair_due_dates={(1, 2): 1, (0, 1): 3})
        sol = mst_loc(inst, NET, Budget(600.0))
        assert set(sol.tree.edge_ids) == {0, 2}
        assert sol.objective == 0

    def test_loc_never_worse_than_mst(self):
        rng = random.Random(53)
        for variant in (USRT, L_ETPC):
            for _ in range(10):
                inst = random_instance(rng, variant, rng.randint(2, 7))
                base = mst_heuristic(inst).objective
                for kind in (NET, SCH):
                    assert mst_loc(inst, kind, Budget(600.0)).objective <= base

    def test_deterministic(self):
        rng = random.Random(54)
        inst = random_instance(rng, USRT, 7)
        a = mst_loc(inst, NET, Budget(600.0))
        b = mst_loc(inst, NET, Budget(600.0))
        assert a.tree.edge_ids == b.tree.edge_ids
        assert a.schedule.order == b.schedule.order
        assert a.objective == b.objective
