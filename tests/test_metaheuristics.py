import random
import time

import pytest

from netcon import (
    DEFAULT_PARAMS,
    VARIANTS,
    Budget,
    GeneratorSpec,
    ILS,
    L_ETPC,
    NET,
    SCH,
    TS,
    USRT,
    ProblemInstance,
    evaluate,
    generate,
    iterated_local_search,
    mst_heuristic,
    mst_loc,
    run,
    shake,
    solve_tree,
    tabu_search,
)
import netcon.metaheuristics
import netcon.neighborhoods
from netcon.metaheuristics import TabuList

from helpers import random_instance, random_spanning_tree, tri


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
        budget = Budget(600.0, max_iters=5)
        added = []
        real_add = TabuList.add

        def spy(self, item, until):
            added.append(until - budget.iteration)
            real_add(self, item, until)

        monkeypatch.setitem(DEFAULT_PARAMS[variant], f"ts_{kind.lower()}", (3, 3))
        monkeypatch.setattr(TabuList, "add", spy)
        tabu_search(inst, kind, budget)
        # the MST-LOC start is a local optimum, so the first step is a tabu move
        assert added and set(added) == {3}

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


class TestTabuList:
    def test_blocking(self):
        tl = TabuList()
        tl.add(3, until=10)
        assert tl.active(3, 10)
        assert not tl.active(3, 11)
        assert not tl.active(4, 0)
        tl.add(3, until=5)  # never shortens an existing tenure
        assert tl.active(3, 10)
        tl.clear()
        assert not tl.active(3, 0)


class TestShake:
    def test_net_p_zero_is_noop(self):
        inst = ProblemInstance(tri(), USRT)
        sol = mst_loc(inst, NET)
        out = shake(inst, sol, NET, 0.0, random.Random(0))
        assert set(out.tree.edge_ids) == set(sol.tree.edge_ids)

    def test_net_p_one_valid(self):
        rng = random.Random(61)
        inst = random_instance(rng, USRT, 7)
        sol = mst_loc(inst, NET)
        for seed in range(5):
            out = shake(inst, sol, NET, 1.0, random.Random(seed))
            assert len(out.tree.edge_ids) == inst.net.n - 1
            assert evaluate(inst, out.schedule)[0] == out.objective

    def test_sch_valid_both_settings(self):
        rng = random.Random(62)
        for variant in (USRT, L_ETPC):
            inst = random_instance(rng, variant, 7)
            sol = mst_loc(inst, SCH)
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

        evaluated = [0]
        real_solve_tree = netcon.neighborhoods.solve_tree

        def counting_solve_tree(*args):
            evaluated[0] += 1
            return real_solve_tree(*args)

        monkeypatch.setattr(time, "monotonic", fake_monotonic)
        monkeypatch.setattr(netcon.neighborhoods, "solve_tree", counting_solve_tree)
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
                    base = mst_loc(inst, kind).objective
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

    def test_target_objective_stops_early(self):
        inst = ProblemInstance(tri(), USRT)
        sol = iterated_local_search(inst, NET, Budget(600.0, target=3))  # ends before 600 s
        assert sol.objective == 3
