import random
import time

import pytest

from netcon import (
    DEFAULT_PARAMS,
    GeneratorSpec,
    ILS,
    L_ETPC,
    NET,
    SCH,
    TS,
    USRT,
    ProblemInstance,
    SearchConfig,
    default_config,
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
import netcon.neighborhoods
from netcon.metaheuristics import TabuList, _fill_defaults

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

    def test_default_config_populates(self):
        cfg = default_config("USRT", ILS, NET)
        assert cfg.shake_p == 0.11
        cfg = default_config("L_ETPC", TS, SCH)
        assert (cfg.tenure_min, cfg.tenure_max) == (5, 17)

    def test_fill_keeps_set_fields(self):
        cfg = _fill_defaults("USRT", SearchConfig(algorithm=TS, kind=NET, tenure_min=2))
        assert (cfg.tenure_min, cfg.tenure_max) == (2, 17)
        cfg = _fill_defaults("USRT", SearchConfig(algorithm=ILS, kind=NET, shake_p=0.5))
        assert cfg.shake_p == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(algorithm="BOGUS", kind=NET)
        with pytest.raises(ValueError):
            SearchConfig(algorithm=ILS, kind="BOGUS")
        with pytest.raises(ValueError):
            SearchConfig(algorithm=ILS, kind=NET, shake_p=1.5)
        with pytest.raises(ValueError):
            SearchConfig(algorithm=TS, kind=NET, tenure_min=9, tenure_max=3)
        # no deadline ever passes NaN; JSON records cannot hold NaN or inf
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="time_limit"):
                SearchConfig(algorithm=ILS, kind=NET, time_limit=bad)
        with pytest.raises(ValueError, match="max_iters"):
            SearchConfig(algorithm=ILS, kind=NET, max_iters=-3)
        with pytest.raises(ValueError):
            tabu_search(
                ProblemInstance(tri(), USRT), SearchConfig(algorithm=ILS, kind=NET)
            )


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
        cfg = default_config("USRT", ILS, NET, max_iters=5, seed=1)
        assert iterated_local_search(inst, cfg).objective == 3

    def test_tri_ts_reaches_optimum(self):
        inst = ProblemInstance(tri(), USRT)
        cfg = default_config("USRT", TS, NET, max_iters=5, seed=1)
        assert tabu_search(inst, cfg).objective == 3

    def test_time_limit_zero_is_mst(self):
        # the MST-LOC start stops before it accepts its first neighbour
        rng = random.Random(63)
        inst = random_instance(rng, USRT, 7)
        base = mst_heuristic(inst).objective
        for algo in (ILS, TS):
            for kind in (NET, SCH):
                cfg = default_config("USRT", algo, kind, time_limit=0.0)
                assert run(inst, cfg).objective == base

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
                sol = run(inst, default_config("SWRT", algo, kind, time_limit=5.0))
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
                    cfg = default_config(variant, algo, kind, max_iters=3, seed=2)
                    sol = run(inst, cfg)
                    assert sol.objective <= base
                    assert evaluate(inst, sol.schedule)[0] == sol.objective

    def test_deterministic_given_max_iters(self):
        rng = random.Random(65)
        inst = random_instance(rng, USRT, 7)
        for algo in (ILS, TS):
            cfg = default_config("USRT", algo, NET, max_iters=4, seed=9)
            a = run(inst, cfg)
            b = run(inst, cfg)
            assert a.tree.edge_ids == b.tree.edge_ids
            assert a.schedule.order == b.schedule.order

    def test_target_objective_stops_early(self):
        inst = ProblemInstance(tri(), USRT)
        cfg = default_config("USRT", ILS, NET, target_objective=3)
        sol = iterated_local_search(inst, cfg)  # finite despite the 600 s default
        assert sol.objective == 3
