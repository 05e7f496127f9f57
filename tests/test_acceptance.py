"""Acceptance criteria, one test per criterion, each printing a pass/fail line."""
import itertools
import random
import time

import numpy as np

from netcon import (
    DEFAULT_PARAMS,
    ILS,
    L,
    L_ETPC,
    NET,
    SCH,
    SWRT,
    TS,
    USRT,
    Budget,
    ContractedGraph,
    Solution,
    a_et,
    a_it,
    brute_force_instance,
    cached_oracle,
    evaluate,
    gap,
    impr,
    mst_loc,
    optimal_schedule,
    pairs_connection_sequence,
    run,
    solve_tree,
    vertex_recovery_sequence,
)
from netcon.cli import main

from helpers import (
    attach_data,
    brute_force_tree,
    contracted_adjacency,
    random_feasible_order,
    random_instance,
    random_network,
    random_order,
    random_spanning_tree,
    recompute_contracted,
    tip_path,
)


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_tree_solver_oracle_equivalence(capsys):
    rng = random.Random(1001)
    start = time.monotonic()
    matches = 0
    total = 0
    for variant in (USRT, SWRT, L):
        for _ in range(200):
            net = random_network(rng, rng.randint(2, 9), max_len=20)
            inst = attach_data(rng, net, variant, max_weight=10)
            tree = random_spanning_tree(rng, net)
            exact = evaluate(inst, optimal_schedule(inst, tree))[0]
            brute = brute_force_tree(inst, tree)[0]
            total += 1
            matches += exact == brute
    for _ in range(200):
        net = random_network(rng, rng.randint(2, 8), max_len=20)
        inst = attach_data(rng, net, L_ETPC, max_pairs=8)
        tree = random_spanning_tree(rng, net)
        exact = evaluate(inst, optimal_schedule(inst, tree))[0]
        brute = brute_force_tree(inst, tree)[0]
        total += 1
        matches += exact == brute
    elapsed = time.monotonic() - start
    ok = matches == total == 800 and elapsed < 60.0
    report(
        capsys,
        "1 tree-solver oracle equivalence",
        ok,
        f"{matches}/{total} matches in {elapsed:.1f}s",
    )


def _dominance_samples(rng, variant, count):
    """(instance, spanning tree, schedule) with a feasible (IT) or arbitrary
    (ET) order."""
    for _ in range(count):
        inst = random_instance(rng, variant, rng.randint(2, 12))
        tree = random_spanning_tree(rng, inst.net)
        if variant == L_ETPC:
            sched = random_order(rng, tree)
        else:
            sched = random_feasible_order(rng, tree)
        yield inst, tree, sched


def _rebuild(inst, sched):
    """One A-IT / A-ET rebuild from the schedule's own sequence."""
    if inst.variant == L_ETPC:
        seq = pairs_connection_sequence(inst, sched, reduced=False)
        return a_et(inst.net, seq.order)
    seq = vertex_recovery_sequence(inst, sched)
    return a_it(inst.net, seq)


def test_criterion_2_rebuild_dominance(capsys):
    violations = 0
    total = 0
    for variant in (USRT, SWRT, L, L_ETPC):
        rng = random.Random(1002)
        for inst, tree, sched in _dominance_samples(rng, variant, 1000):
            f_s = evaluate(inst, sched)[0]
            rebuilt = solve_tree(inst, _rebuild(inst, sched))
            total += 1
            if rebuilt.objective > f_s:
                violations += 1
    report(
        capsys,
        "2 rebuild dominance",
        violations == 0 and total == 4000,
        f"{violations} violations over {total} samples",
    )


def test_criterion_3_impr_contract(capsys):
    bad = 0
    total = 0
    for variant in (USRT, SWRT, L, L_ETPC):
        rng = random.Random(1002)  # the criterion-2 samples
        for inst, tree, sched in _dominance_samples(rng, variant, 250):
            start = Solution(tree, sched, evaluate(inst, sched)[0])
            out = impr(inst, start)
            again = impr(inst, out)
            first_step = solve_tree(inst, _rebuild(inst, sched))
            total += 1
            if out.objective > start.objective:
                bad += 1  # never worse
            elif again.objective != out.objective:
                bad += 1  # idempotent
            elif first_step.objective < start.objective and not (
                out.objective < start.objective
            ):
                bad += 1  # strict when more than one iteration ran
    report(
        capsys,
        "3 IMPR contract",
        bad == 0,
        f"{bad} contract violations over {total} samples",
    )


def test_criterion_4_rebuild_agreement(capsys):
    rng = random.Random(1004)
    agree = 0
    for _ in range(200):
        variant = (USRT, SWRT, L)[rng.randrange(3)]
        inst = random_instance(rng, variant, rng.randint(2, 10))
        tree = random_spanning_tree(rng, inst.net)
        sched = random_feasible_order(rng, tree)
        vseq = vertex_recovery_sequence(inst, sched)
        pseq = pairs_connection_sequence(inst, sched, reduced=False)
        t_it = a_it(inst.net, vseq)
        t_et = a_et(inst.net, pseq.order)
        agree += set(t_it.edge_ids) == set(t_et.edge_ids)
    report(
        capsys,
        "4 IT/ET rebuild agreement",
        agree == 200,
        f"{agree}/200 identical edge sets",
    )


def test_criterion_5_contraction_update(capsys):
    rng = random.Random(1005)
    exact = 0
    for _ in range(100):
        net = random_network(rng, rng.randint(3, 10))
        cg = ContractedGraph(net)
        all_match = True
        while cg.sets > 1:
            adj = contracted_adjacency(cg)
            act = [v for v in sorted(set(cg.label)) if adj[v]]
            x = act[rng.randrange(len(act))]
            options = sorted(adj[x])
            y = options[rng.randrange(len(options))]
            cg.contract_edge(x, y)
            dist, tips = recompute_contracted(cg)
            alive = sorted(set(cg.label))
            ix = np.ix_(alive, alive)
            if not (
                np.array_equal(cg.dist[ix], dist[ix])
                and all(
                    cg.path((a, b)) == tip_path(cg, tips, a, b)
                    for a, b in itertools.combinations(alive, 2)
                )
            ):
                all_match = False
        exact += all_match
    report(
        capsys,
        "5 contraction update",
        exact == 100,
        f"{exact}/100 sequences exactly match the recompute",
    )


def _small_corpus(variant, count=100):
    """Instances inside the brute-force budget: alternating complete n <= 7
    and sparse n <= 9 (m <= n + 3) networks."""
    rng = random.Random(1006)
    out = []
    for k in range(count):
        if k % 2 == 0:
            net = random_network(rng, rng.randint(5, 7), complete=True)
        else:
            net = random_network(rng, rng.randint(8, 9), extra_edges=rng.randint(0, 3))
        out.append((k, attach_data(rng, net, variant)))
    return out


def test_criterion_6_small_scale_optimality(capsys):
    lines = []
    ok = True
    for variant in (USRT, SWRT, L, L_ETPC):
        hits = {"ils": 0, "ts": 0}
        gaps = []
        for k, inst in _small_corpus(variant):
            opt, _ = brute_force_instance(inst)
            ml = mst_loc(inst, NET, Budget(600.0))
            d_min = None if variant in (USRT, SWRT) else inst.d_min()
            gaps.append(gap(ml.objective, opt, d_min, variant))
            for algo, key in ((ILS, "ils"), (TS, "ts")):
                sol = run(inst, algo, NET, Budget(2.0, target=opt), seed=k)
                hits[key] += sol.objective == opt
        avg_gap = float(sum(gaps) / len(gaps))
        ok = ok and hits["ils"] >= 90 and hits["ts"] >= 90 and avg_gap <= 5.0
        lines.append(
            f"{variant}: ILS {hits['ils']}/100, TS {hits['ts']}/100, "
            f"MST-LOC-NET avg gap {avg_gap:.2f}%"
        )
    report(capsys, "6 small-scale optimality", ok, "; ".join(lines))


def test_criterion_7_net_beats_sch(capsys):
    lines = []
    ok = True
    for variant in (USRT, SWRT, L, L_ETPC):
        net_wins = sch_wins = 0
        for _, inst in _small_corpus(variant):
            a = mst_loc(inst, NET, Budget(600.0)).objective
            b = mst_loc(inst, SCH, Budget(600.0)).objective
            net_wins += a < b
            sch_wins += b < a
        ok = ok and net_wins >= sch_wins
        lines.append(f"{variant}: NET wins {net_wins}, SCH wins {sch_wins}")
    report(capsys, "7 NET vs SCH ordering", ok, "; ".join(lines))


def _cli_out(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_8_cli_determinism(capsys, tmp_path):
    gen = ("generate", "--family", "euclidean_complete", "--n", "7",
           "--variant", "L", "--seed", "11")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    _cli_out(capsys, *gen, "-o", str(p1))
    _cli_out(capsys, *gen, "-o", str(p2))
    same_files = p1.read_bytes() == p2.read_bytes()

    same_solve = True
    for algo in ("mst", "mst-loc-net", "mst-loc-sch", "oracle",
                 "ils-net", "ils-sch", "ts-net", "ts-sch"):
        args = ["solve", str(p1), "--algo", algo, "--seed", "5"]
        if algo.startswith(("ils", "ts")):
            args += ["--max-iters", "5"]
        same_solve = same_solve and (
            _cli_out(capsys, *args) == _cli_out(capsys, *args)
        )

    same_oracle = _cli_out(capsys, "oracle", str(p1)) == _cli_out(
        capsys, "oracle", str(p1)
    )

    d = tmp_path / "instances"
    d.mkdir()
    (d / "a.json").write_bytes(p1.read_bytes())
    csvs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        _cli_out(capsys, "bench", "--instances-dir", str(d),
                 "--algos", "mst,oracle,ts-net", "--seeds", "0,1",
                 "--max-iters", "5", "--out", str(out))
        rows = out.read_text().splitlines()
        # wall-clock column is timing, not output; mask it before comparing
        csvs.append([",".join(c for i, c in enumerate(r.split(",")) if i != 7)
                     for r in rows])
    same_bench = csvs[0] == csvs[1]
    same_report = _cli_out(
        capsys, "report", "--results", str(tmp_path / "r1.csv")
    ) == _cli_out(capsys, "report", "--results", str(tmp_path / "r1.csv"))

    ok = same_files and same_solve and same_oracle and same_bench and same_report
    report(
        capsys,
        "8 CLI determinism",
        ok,
        f"generate={same_files} solve={same_solve} oracle={same_oracle} "
        f"bench(ex. wall_ms)={same_bench} report={same_report}",
    )


def test_criterion_9_default_parameters(capsys):
    expected = {
        "USRT": {"ils_net": 0.11, "ils_sch": 0.36, "ts_net": (5, 17), "ts_sch": (4, 12)},
        "SWRT": {"ils_net": 0.24, "ils_sch": 0.35, "ts_net": (6, 16), "ts_sch": (5, 11)},
        "L": {"ils_net": 0.23, "ils_sch": 0.46, "ts_net": (7, 14), "ts_sch": (7, 17)},
        "L_ETPC": {"ils_net": 0.03, "ils_sch": 0.14, "ts_net": (7, 14), "ts_sch": (5, 17)},
    }
    cells = sum(
        DEFAULT_PARAMS[v][k] == expected[v][k] for v in expected for k in expected[v]
    )
    report(capsys, "9 default parameter table", cells == 16, f"{cells}/16 cells match")


def test_criterion_10_complexity_smoke(capsys):
    rng = random.Random(1010)
    net = random_network(rng, 1000, extra_edges=1000, max_len=1000)
    cached_oracle(net)  # pre-processing, excluded from the per-call budget
    worst_it = 0.0
    for _ in range(3):
        order = [v for v in range(net.n) if v != net.depot]
        rng.shuffle(order)
        t0 = time.monotonic()
        tree = a_it(net, tuple(order))
        worst_it = max(worst_it, time.monotonic() - t0)
        assert len(tree.edge_ids) == net.n - 1

    net3 = random_network(rng, 300, extra_edges=300, max_len=1000)
    cached_oracle(net3)
    worst_et = 0.0
    for _ in range(3):
        pairs = [tuple(sorted(rng.sample(range(300), 2))) for _ in range(600)]
        t0 = time.monotonic()
        tree = a_et(net3, pairs)
        worst_et = max(worst_et, time.monotonic() - t0)
        assert len(tree.edge_ids) == net3.n - 1
    ok = worst_it < 0.5 and worst_et < 2.0
    report(
        capsys,
        "10 complexity smoke test",
        ok,
        f"A-IT n=1000 worst {worst_it:.3f}s; A-ET n=300 worst {worst_et:.3f}s",
    )
