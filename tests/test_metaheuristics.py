import dataclasses
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcon import (
    DEFAULT_PARAMS,
    FAMILIES,
    KINDS,
    L,
    SWRT,
    VARIANTS,
    Budget,
    GeneratorSpec,
    ILS,
    L_ETPC,
    NET,
    SCH,
    TS,
    USRT,
    Network,
    ProblemInstance,
    SpanningTree,
    evaluate,
    generate,
    impr,
    iterated_local_search,
    loc,
    mst_heuristic,
    mst_loc,
    neighbors,
    run,
    shake,
    solve_tree,
    tabu_search,
)
import netcon.local_search
import netcon.metaheuristics
import netcon.neighborhoods
import netcon.tree_solvers

import helpers
from helpers import (
    random_instance,
    random_spanning_tree,
    reference_iterated_local_search,
    reference_loc,
    reference_tabu_search,
    tri,
)


class TestConfig:
    def test_table_values(self):
        assert DEFAULT_PARAMS["USRT"] == {
            "ils_net": 0.11, "ils_sch": 0.36, "ts_net": (5, 17), "ts_sch": (4, 12),
        }
        assert DEFAULT_PARAMS["SWRT"] == {
            "ils_net": 0.24, "ils_sch": 0.35, "ts_net": (6, 16), "ts_sch": (5, 11),
        }
        assert DEFAULT_PARAMS["L"] == {
            "ils_net": 0.23, "ils_sch": 0.46, "ts_net": (7, 14), "ts_sch": (7, 17),
        }
        assert DEFAULT_PARAMS["L_ETPC"] == {
            "ils_net": 0.03, "ils_sch": 0.14, "ts_net": (7, 14), "ts_sch": (5, 17),
        }

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", (NET, SCH))
    def test_ils_shakes_with_table_value(self, monkeypatch, variant, kind):
        inst = random_instance(random.Random(66), variant, 6)
        seen = []
        real_shake = netcon.metaheuristics.shake

        def spy(inst, s, kind, p, rng):
            seen.append(p)
            return real_shake(inst, s, kind, p, rng)

        monkeypatch.setattr(netcon.metaheuristics, "shake", spy)
        iterated_local_search(inst, kind, Budget(600.0, max_iters=3))
        assert seen == [DEFAULT_PARAMS[variant][f"ils_{kind.lower()}"]] * 3

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", (NET, SCH))
    def test_ts_tenure_from_table(self, monkeypatch, variant, kind):
        inst = random_instance(random.Random(67), variant, 6)
        draws = []
        real_randint = random.Random.randint

        def spy(self, a, b):
            draws.append((a, b))
            return real_randint(self, a, b)

        monkeypatch.setattr(random.Random, "randint", spy)
        tabu_search(inst, kind, Budget(600.0, max_iters=5))
        # the MST-LOC start is a local optimum, so the first step is a tabu move
        assert draws and set(draws) == {DEFAULT_PARAMS[variant][f"ts_{kind.lower()}"]}

    def test_validation(self):
        inst = ProblemInstance(tri(), USRT)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(inst, "BOGUS", NET, Budget(1.0))
        with pytest.raises(ValueError, match="unknown neighborhood kind"):
            run(inst, ILS, "BOGUS", Budget(1.0))


class TestBudget:
    def test_limits_checked(self):
        # no deadline ever passes NaN; JSON records cannot hold NaN or inf
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="time_limit"):
                Budget(bad)
        with pytest.raises(ValueError, match="max_iters"):
            Budget(1.0, max_iters=-3)

    def test_limit_types_checked(self):
        # the instance data's rule: an integer (numpy's included), not a bool
        for bad in (True, False, 2.5, 2.0, "3"):
            with pytest.raises(ValueError, match="max_iters"):
                Budget(1.0, max_iters=bad)
        for bad in (True, False):
            with pytest.raises(ValueError, match="time_limit"):
                Budget(bad)
        assert Budget(1.0, max_iters=np.int64(2)).max_iters == 2
        assert Budget(0, max_iters=0).max_iters == 0


class TestShake:
    def test_net_p_zero_is_noop(self):
        inst = ProblemInstance(tri(), USRT)
        sol = mst_loc(inst, NET, Budget(600.0))
        out = shake(inst, sol, NET, 0.0, random.Random(0))
        assert set(out.tree.edge_ids) == set(sol.tree.edge_ids)

    def test_net_p_one_valid(self):
        rng = random.Random(61)
        inst = random_instance(rng, USRT, 7)
        sol = mst_loc(inst, NET, Budget(600.0))
        for seed in range(5):
            out = shake(inst, sol, NET, 1.0, random.Random(seed))
            assert len(out.tree.edge_ids) == inst.net.n - 1
            assert evaluate(inst, out.schedule)[0] == out.objective

    def test_sch_valid_both_settings(self):
        rng = random.Random(62)
        for variant in (USRT, L_ETPC):
            inst = random_instance(rng, variant, 7)
            sol = mst_loc(inst, SCH, Budget(600.0))
            out = shake(inst, sol, SCH, 0.5, random.Random(7))
            assert len(out.tree.edge_ids) == inst.net.n - 1
            assert evaluate(inst, out.schedule)[0] == out.objective


class TestSearch:
    def test_tri_ils_reaches_optimum(self):
        inst = ProblemInstance(tri(), USRT)
        sol = iterated_local_search(inst, NET, Budget(600.0, max_iters=5), seed=1)
        assert sol.objective == 3

    def test_tri_ts_reaches_optimum(self):
        inst = ProblemInstance(tri(), USRT)
        assert tabu_search(inst, NET, Budget(600.0, max_iters=5), seed=1).objective == 3

    def test_time_limit_zero_is_mst(self):
        # the MST-LOC start stops before it accepts its first neighbour
        rng = random.Random(63)
        inst = random_instance(rng, USRT, 7)
        base = mst_heuristic(inst).objective
        for algo in (ILS, TS):
            for kind in (NET, SCH):
                assert run(inst, algo, kind, Budget(0.0)).objective == base

    def test_time_limit_bounds_mst_loc_start(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean_complete", 12, 3, "SWRT"))
        clock = [0.0]

        def fake_monotonic():  # every reading is one second later
            clock[0] += 1.0
            return clock[0]

        evaluated = [0]  # ES(T) kernel calls: the SWRT instance's es_swrt
        real_es_swrt = netcon.tree_solvers.es_swrt

        def counting_es_swrt(*args):
            evaluated[0] += 1
            return real_es_swrt(*args)

        monkeypatch.setattr(time, "monotonic", fake_monotonic)
        monkeypatch.setattr(netcon.tree_solvers, "es_swrt", counting_es_swrt)
        for algo in (ILS, TS):
            for kind in (NET, SCH):
                evaluated[0] = 0
                sol = run(inst, algo, kind, Budget(5.0))
                # 5 s of one-second readings leave room for about 5 neighbours
                assert 1 <= evaluated[0] <= 6, (algo, kind, evaluated[0])
                assert evaluate(inst, sol.schedule)[0] == sol.objective

    def test_never_worse_than_start(self):
        rng = random.Random(64)
        for variant in (USRT, L_ETPC):
            inst = random_instance(rng, variant, 7)
            for algo in (ILS, TS):
                for kind in (NET, SCH):
                    base = mst_loc(inst, kind, Budget(600.0)).objective
                    sol = run(inst, algo, kind, Budget(600.0, max_iters=3), seed=2)
                    assert sol.objective <= base
                    assert evaluate(inst, sol.schedule)[0] == sol.objective

    def test_deterministic_given_max_iters(self):
        rng = random.Random(65)
        inst = random_instance(rng, USRT, 7)
        for algo in (ILS, TS):
            # a budget is used up by its run, so each run takes its own
            a = run(inst, algo, NET, Budget(600.0, max_iters=4), seed=9)
            b = run(inst, algo, NET, Budget(600.0, max_iters=4), seed=9)
            assert a.tree.edge_ids == b.tree.edge_ids
            assert a.schedule.order == b.schedule.order

    def test_searches_improve_on_start(self, monkeypatch):
        # ILS's shake finds a better optimum at iteration 2 and TS improves
        # at iteration 3, so both take their improving branches
        inst = generate(GeneratorSpec("euclidean_complete", 8, 1, SWRT))
        start = mst_loc(inst, NET, Budget(600.0)).objective
        ils = iterated_local_search(inst, NET, Budget(600.0, max_iters=6))
        # TS asks whether loc proved its incumbent only while no item is
        # tabu: at its start and right after the improving step clears them
        budget, improved, asked = Budget(600.0, max_iters=6), [], []
        real_impr, real_proved = netcon.metaheuristics.impr, Budget.proved
        monkeypatch.setattr(
            netcon.metaheuristics, "impr", lambda *a: improved.append(budget.iteration) or real_impr(*a)
        )
        monkeypatch.setattr(
            Budget, "proved", lambda self, *a: asked.append(self.iteration) or real_proved(self, *a)
        )
        ts = tabu_search(inst, NET, budget)
        assert len(improved) == 1 and improved[0] > 1  # items were tabu when it improved
        assert [i for i in asked if i] == [1, improved[0] + 1]
        assert outcome(ils) == outcome(reference_iterated_local_search(inst, NET, 6))
        assert outcome(ts) == outcome(reference_tabu_search(inst, NET, 6))
        assert ils.objective < start and ts.objective < start

    def test_ts_deadline_mid_scan(self, monkeypatch):
        """The deadline passes right after a TS scan meets a neighbour better
        than the start: TS steps to the best neighbour seen so far, passes
        it through impr and starts no further scan."""
        inst = generate(GeneratorSpec("euclidean_complete", 8, 1, SWRT))
        start = mst_loc(inst, NET, Budget(600.0))
        scans, expired = [], [False]
        real = netcon.neighborhoods.neighbors

        def cut(*args):
            scans.append((args, []))
            for nb in real(*args):
                scans[-1][1].append(nb)
                expired[0] = nb[1].objective < start.objective
                yield nb

        monkeypatch.setattr(netcon.metaheuristics, "neighbors", cut)
        monkeypatch.setattr(Budget, "expired", lambda self: expired[0])
        ts = tabu_search(inst, NET, Budget(600.0, max_iters=6))
        args, seen = scans[-1]
        assert expired[0]
        expired[0] = False  # the scan below reads the uncut stream
        assert 0 < len(seen) < len(list(real(*args)))
        first_min = min(seen, key=lambda nb: nb[1].objective)
        assert outcome(ts) == outcome(impr(inst, first_min[1]))
        assert ts.objective < start.objective

    @pytest.mark.parametrize("spec, kind, seed", [
        (GeneratorSpec("planar_road", 40, 3, L), NET, 1),
        (GeneratorSpec("planar_road", 40, 3, L), SCH, 1),
        (GeneratorSpec("euclidean_complete", 20, 3, L_ETPC), NET, 1),
        (GeneratorSpec("euclidean_complete", 20, 3, L_ETPC), SCH, 1),
        # a tabu neighbour is the best one while later free ones still improve best_free
        (GeneratorSpec("euclidean_complete", 10, 3, L), NET, 3),
        (GeneratorSpec("planar_road", 10, 3, L), SCH, 3),
    ], ids=["road40-L-NET", "road40-L-SCH", "complete20-L_ETPC-NET", "complete20-L_ETPC-SCH",
            "complete10-L-NET", "road10-L-SCH"])
    def test_cut_scans_equal_reference(self, spec, kind, seed):
        # TS lowers the cutoff at or above which its scans skip neighbours;
        # the reference reads every neighbour of every scan
        inst = generate(spec)
        ts = tabu_search(inst, kind, Budget(600.0, max_iters=15), seed=seed)
        assert outcome(ts) == outcome(reference_tabu_search(inst, kind, 15, seed=seed))

    @pytest.mark.parametrize("variant", (USRT, L))
    @pytest.mark.parametrize("net, kind", [
        (Network(4, ((0, 1, 2), (1, 2, 3), (2, 3, 1))), NET),  # a path: NET has no move
        (Network(2, ((0, 1, 5),)), SCH),  # one vertex to recover: SCH has no shift
    ], ids=["path-NET", "edge-SCH"])
    def test_empty_neighbourhood_returns_start(self, variant, net, kind):
        # TS breaks at once; ILS's shake finds nothing to move
        data = {"vertex_due_dates": tuple(range(net.n))} if variant == L else {}
        inst = ProblemInstance(net, variant, **data)
        for algo in (ILS, TS):
            budget = Budget(600.0, max_iters=3)
            assert outcome(run(inst, algo, kind, budget)) == outcome(mst_heuristic(inst))
            assert budget.optimum_neighbour is None

    @pytest.mark.parametrize("seed", (4, 5, 6))
    def test_ts_readd_keeps_later_expiry(self, monkeypatch, seed):
        # these runs re-add an item while it is still tabu, with a shorter
        # draw; it must stay tabu until its first expiry, or TS scans from
        # other trees than the reference (its first tree comes from loc's
        # record, so TS scans the reference's trees after the first)
        inst = random_instance(random.Random(seed), USRT, 5)
        real, real_loc = netcon.neighborhoods.neighbors, helpers.reference_loc
        ts_trees, ref_trees = [], []

        def recording(trees):
            return lambda inst, cur, *a: trees.append(cur.tree.edge_ids) or real(inst, cur, *a)

        def descent_unrecorded(*a):
            out = real_loc(*a)
            ref_trees.clear()  # the reference's MST-LOC start scans are not TS steps
            return out

        monkeypatch.setattr(netcon.metaheuristics, "neighbors", recording(ts_trees))
        monkeypatch.setattr(helpers, "neighbors", recording(ref_trees))
        monkeypatch.setattr(helpers, "reference_loc", descent_unrecorded)
        ts = tabu_search(inst, NET, Budget(600.0, max_iters=15), seed=seed)
        ref = reference_tabu_search(inst, NET, 15, seed=seed)
        assert outcome(ts) == outcome(ref)
        assert len(ref_trees) == 15 and ts_trees == ref_trees[1:]

    def test_target_objective_stops_early(self):
        inst = ProblemInstance(tri(), USRT)
        sol = iterated_local_search(inst, NET, Budget(600.0, target=3))  # ends before 600 s
        assert sol.objective == 3


@st.composite
def tie_heavy_instances(draw):
    """A small generated instance with its lengths folded into 1..k (k = 1
    makes them all equal) and, when drawn, its SWRT weights, L due dates
    or L_ETPC due dates folded into {0, 1}, so that many neighbours tie."""
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(3, 9))
    inst = generate(GeneratorSpec(draw(st.sampled_from(FAMILIES)), n, draw(st.integers(0, 2**16)), variant))
    k = draw(st.sampled_from((1, 2, 3)))
    net = Network(n, tuple((a, b, 1 + w % k) for a, b, w in inst.net.edges), depot=inst.net.depot)
    inst = dataclasses.replace(inst, net=net)
    if not draw(st.booleans()):
        return inst
    if variant == SWRT:
        return dataclasses.replace(inst, weights=tuple(w % 2 for w in inst.weights))
    if variant == L:
        return dataclasses.replace(inst, vertex_due_dates=tuple(d % 2 for d in inst.vertex_due_dates))
    if variant == L_ETPC:
        return dataclasses.replace(inst, pair_due_dates={p: d % 2 for p, d in inst.pair_due_dates.items()})
    return inst


def outcome(sol):
    return sol.objective, sol.tree.edge_ids, sol.schedule.order


def count_scans(monkeypatch) -> list:
    """Count the neighbourhood scans that ``loc`` and TS start."""
    scans = [0]
    real = netcon.neighborhoods.neighbors

    def counting(*args):
        scans[0] += 1
        return real(*args)

    monkeypatch.setattr(netcon.local_search, "neighbors", counting)
    monkeypatch.setattr(netcon.metaheuristics, "neighbors", counting)
    return scans


class TestProvenOptimum:
    """The budget's record of loc's last proven local optimum saves scans
    and changes no result."""

    @settings(max_examples=150)
    @given(
        inst=tie_heavy_instances(),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 4),
        max_iters=st.integers(0, 4),
    )
    def test_equals_reference(self, inst, kind, seed, max_iters):
        start = reference_loc(inst, mst_heuristic(inst), kind)
        budget = Budget(600.0)
        assert outcome(mst_loc(inst, kind, budget)) == outcome(start)
        # the record holds the stream's first minimum, the neighbour TS steps to
        first_min = min(neighbors(inst, start, kind, Budget(600.0)), key=lambda nb: nb[1].objective, default=None)
        recorded = budget.optimum_neighbour
        assert (recorded is None) == (first_min is None)
        if first_min is not None:
            assert recorded[0] == first_min[0] and outcome(recorded[1]) == outcome(first_min[1])
        ils = run(inst, ILS, kind, Budget(600.0, max_iters=max_iters), seed)
        assert outcome(ils) == outcome(reference_iterated_local_search(inst, kind, max_iters, seed))
        ts = run(inst, TS, kind, Budget(600.0, max_iters=max_iters), seed)
        assert outcome(ts) == outcome(reference_tabu_search(inst, kind, max_iters, seed))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_ts_first_step_reuses_start_scan(self, monkeypatch, variant, kind):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 5, variant))
        scans = count_scans(monkeypatch)
        mst_loc(inst, kind, Budget(600.0))
        start = scans[0]
        assert start >= 1
        for max_iters, extra in ((1, 0), (2, 1)):  # iteration 2 stands on a new tree
            scans[0] = 0
            tabu_search(inst, kind, Budget(600.0, max_iters=max_iters))
            assert scans[0] == start + extra

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_ils_shake_to_same_tree_makes_no_scan(self, monkeypatch, variant, kind):
        inst = generate(GeneratorSpec("euclidean_complete", 7, 5, variant))
        scans = count_scans(monkeypatch)
        want = mst_loc(inst, kind, Budget(600.0))
        start = scans[0]
        # a new Solution of the incumbent's tree: the record matches trees, not objects
        monkeypatch.setattr(netcon.metaheuristics, "shake", lambda inst, s, *_: solve_tree(inst, s.tree))
        scans[0] = 0
        got = iterated_local_search(inst, kind, Budget(600.0, max_iters=3))
        assert scans[0] == start
        assert outcome(got) == outcome(want)

    def test_reused_budget_keeps_runs_apart(self):
        """A tree proven for one instance or kind is not proven for another:
        one budget across runs gives what a fresh budget per run gives."""
        usrt = ProblemInstance(tri(), USRT)
        flat = ProblemInstance(tri(), SWRT, weights=(0, 0, 0))  # every tree optimal
        # a kite whose tree {0, 2, 3} is an SCH local optimum but not a NET one
        kite = ProblemInstance(
            Network(4, ((0, 1, 4), (0, 2, 6), (0, 3, 19), (1, 2, 2), (1, 3, 20), (2, 3, 18)), depot=0),
            USRT,
        )
        triangle = SpanningTree.from_edges(usrt.net, [1, 2])
        runs = [
            (usrt, triangle, NET),
            (flat, triangle, NET),
            (usrt, triangle, NET),
            (usrt, triangle, SCH),
            (flat, triangle, SCH),
            (usrt, triangle, SCH),
            (kite, SpanningTree.from_edges(kite.net, [0, 2, 3]), SCH),
            (kite, SpanningTree.from_edges(kite.net, [0, 2, 3]), NET),
        ]
        shared = Budget(600.0)
        for inst, tree, kind in runs:
            start = solve_tree(inst, tree)
            assert outcome(loc(inst, start, kind, shared)) == outcome(loc(inst, start, kind, Budget(600.0)))


# objective and order of `netcon solve --max-iters 3` on `netcon generate
# --family planar_road --n 60 --variant V` (seed 0), recorded while every ES(T)
# call of a NET scan still built its input tables from scratch
ROAD60_SWRT_ORDER = (
    5, 57, 10, 49, 16, 34, 33, 3, 30, 7, 35, 20, 37, 12, 36, 55, 52, 45, 25, 11, 0, 26, 23, 41, 8,
    42, 19, 54, 18, 28, 2, 50, 15, 48, 1, 17, 39, 91, 32, 24, 22, 29, 38, 31, 44, 14, 9, 21, 43, 6,
    56, 47, 4, 40, 53, 13, 46, 27, 58,
)
ROAD60_PINS = {
    (SWRT, ILS): (735298, ROAD60_SWRT_ORDER),
    (SWRT, TS): (735298, ROAD60_SWRT_ORDER),
    (L, ILS): (2635, (
        5, 57, 10, 94, 98, 70, 7, 89, 81, 55, 104, 54, 73, 2, 50, 15, 48, 63, 27, 87, 51, 100, 102,
        4, 13, 6, 44, 31, 58, 52, 45, 25, 11, 0, 78, 53, 22, 3, 24, 18, 29, 65, 9, 33, 35, 21, 19, 43,
        12, 91, 32, 26, 23, 1, 20, 8, 56, 39, 16,
    )),
    (L, TS): (2635, (
        5, 57, 10, 94, 98, 70, 7, 89, 81, 55, 104, 54, 73, 2, 50, 15, 48, 63, 27, 87, 51, 100, 102,
        4, 13, 6, 44, 31, 58, 52, 45, 25, 11, 0, 78, 53, 22, 3, 24, 66, 29, 14, 33, 35, 21, 65, 19, 43,
        12, 38, 32, 26, 23, 1, 20, 77, 56, 39, 16,
    )),
}


@pytest.mark.parametrize("variant, algo", ROAD60_PINS)
def test_road60_net_runs_pinned(variant, algo):
    """Mid-size NET runs on SWRT and L give the recorded objective and order.
    A wrong table patch is deterministic, so running twice would not show it."""
    inst = generate(GeneratorSpec("planar_road", 60, 0, variant))
    sol = run(inst, algo, NET, Budget(600.0, max_iters=3), 0)
    assert (sol.objective, sol.schedule.order) == ROAD60_PINS[variant, algo]
    assert evaluate(inst, sol.schedule)[0] == sol.objective
