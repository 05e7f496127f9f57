import csv
import json
import re
from pathlib import Path

import pytest

import netcon
from netcon import ProblemInstance, SWRT, USRT, write_instance
from netcon.cli import main
from netcon.instances import GeneratorSpec, generate

from helpers import tri


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tri_usrt(tmp_path):
    path = tmp_path / "tri.json"
    write_instance(ProblemInstance(tri(), USRT), path)
    return str(path)


@pytest.fixture
def tree_shaped(tmp_path):
    from netcon import Network

    net = Network(4, ((0, 1, 2), (1, 2, 3), (1, 3, 1)))
    path = tmp_path / "tree.json"
    write_instance(ProblemInstance(net, USRT), path)
    return str(path)


class TestGenerate:
    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, stdout, _ = run_cli(
            capsys, "generate", "--family", "euclidean_complete", "--n", "6",
            "--variant", "SWRT", "--seed", "4", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "SWRT" and doc["n"] == 6
        assert doc["family"] == "euclidean_complete"

    def test_stdout_mode(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "generate", "--family", "euclidean_complete", "--n", "5",
            "--variant", "USRT",
        )
        assert code == 0
        assert json.loads(stdout)["n"] == 5

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "generate", "--family", "bogus", "--n", "5",
                    "--variant", "USRT")
        assert exc.value.code == 2

    def test_too_small_n(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "euclidean_complete",
                               "--n", "1", "--variant", "USRT")
        assert code == 3
        assert "n must be at least 2" in err

    @pytest.mark.parametrize("family", ["euclidean_complete", "planar_road"])
    def test_n_beyond_grid_points(self, capsys, monkeypatch, family):
        # a 3 x 3 grid has 9 distinct points, so a tenth vertex could never be placed
        monkeypatch.setattr(netcon.instances, "GRID", 2)
        code, stdout, err = run_cli(capsys, "generate", "--family", family, "--n", "10",
                                    "--variant", "USRT")
        assert code == 3 and stdout == ""
        assert "--n 10 exceeds the 9 distinct grid points" in err
        code, stdout, _ = run_cli(capsys, "generate", "--family", family, "--n", "9",
                                  "--variant", "USRT")
        assert code == 0 and json.loads(stdout)["n"] == 9

    def test_random_metric_has_no_grid_bound(self, monkeypatch):
        monkeypatch.setattr(netcon.instances, "GRID", 2)
        assert generate(GeneratorSpec("random_metric", 10, 0, USRT)).net.n == 10


class TestSolve:
    def test_ils_net_tri(self, capsys, tri_usrt):
        code, stdout, _ = run_cli(
            capsys, "solve", tri_usrt, "--algo", "ils-net", "--time-limit", "1",
            "--max-iters", "5",
        )
        assert code == 0
        assert json.loads(stdout)["objective"] == 3

    @pytest.mark.parametrize("algo", ["mst-loc-net", "mst-loc-sch"])
    def test_mst_loc_stops_at_time_limit(self, capsys, tmp_path, algo):
        # a full descent improves this MST; with no time left it stays put
        path = tmp_path / "e30.json"
        write_instance(generate(GeneratorSpec("euclidean_complete", 30, 1, SWRT)), path)
        _, mst_out, _ = run_cli(capsys, "solve", str(path), "--algo", "mst")
        code, stdout, _ = run_cli(
            capsys, "solve", str(path), "--algo", algo, "--time-limit", "0"
        )
        assert code == 0
        assert json.loads(stdout)["objective"] == json.loads(mst_out)["objective"]

    def test_mst_on_tree_shaped_is_optimal(self, capsys, tree_shaped):
        code, mst_out, _ = run_cli(capsys, "solve", tree_shaped, "--algo", "mst")
        code2, oracle_out, _ = run_cli(capsys, "oracle", tree_shaped)
        assert code == 0 and code2 == 0
        assert json.loads(mst_out)["objective"] == json.loads(oracle_out)["objective"]

    def test_same_seed_identical_bytes(self, capsys, tri_usrt):
        args = ("solve", tri_usrt, "--algo", "ts-net", "--seed", "3",
                "--max-iters", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_append(self, capsys, tmp_path, tri_usrt):
        out = tmp_path / "runs.csv"
        for seed in ("0", "1"):
            code, _, _ = run_cli(
                capsys, "solve", tri_usrt, "--algo", "mst", "--seed", seed,
                "--csv", str(out),
            )
            assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert rows[0]["objective"] == "3"
        assert rows[0]["algorithm"] == "mst"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nope.json", "--algo", "mst")
        assert code == 3
        assert "error" in err

    def test_unknown_algo_usage(self, capsys, tri_usrt):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "solve", tri_usrt, "--algo", "magic")
        assert exc.value.code == 2

    @pytest.mark.parametrize("algo, flags, message", [
        # --max-iters 2 stops the search even where a NaN deadline never passes
        ("ils-net", ("--time-limit", "nan", "--max-iters", "2"), "time_limit"),
        ("ils-net", ("--time-limit", "-1"), "time_limit"),
        # an infinite limit would print "time_limit": Infinity, not JSON
        ("ils-net", ("--time-limit", "inf", "--max-iters", "1"), "time_limit"),
        ("ils-net", ("--time-limit", "1e400", "--max-iters", "1"), "time_limit"),
        ("ils-net", ("--max-iters", "-3"), "max_iters"),
        # algorithms that do not use the flags still check them
        ("mst", ("--time-limit", "nan", "--max-iters", "-3"), "time_limit"),
        ("mst", ("--max-iters", "-3"), "max_iters"),
        ("mst-loc-sch", ("--time-limit", "-1"), "time_limit"),
    ], ids=[
        "nan-time-limit", "negative-time-limit", "inf-time-limit",
        "overflowing-time-limit", "negative-max-iters",
        "mst-nan-time-limit", "mst-negative-max-iters", "mst-loc-negative-time-limit",
    ])
    def test_bad_search_flag(self, capsys, tri_usrt, algo, flags, message):
        code, stdout, err = run_cli(capsys, "solve", tri_usrt, "--algo", algo, *flags)
        assert code == 3
        assert stdout == ""
        assert err.startswith("error:") and message in err

    def test_instance_file_parsed_once(self, capsys, monkeypatch, tmp_path):
        import netcon.instances

        path = tmp_path / "g.json"
        inst = generate(GeneratorSpec("planar_road", 6, 0, USRT))
        write_instance(inst, path, family="planar_road")
        loads = []
        real_load = json.load
        monkeypatch.setattr(
            netcon.instances.json, "load", lambda fh: loads.append(1) or real_load(fh)
        )
        code, _, _ = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 0 and len(loads) == 1

    def test_malformed_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1}')
        code, _, err = run_cli(capsys, "solve", str(bad), "--algo", "mst")
        assert code == 3

    def test_deeply_nested_json(self, capsys, tmp_path):
        # the JSON decoder recurses once per bracket
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 3 and stdout == ""
        assert "<root>: JSON nested too deeply" in err

    @pytest.mark.parametrize("pairs, message", [
        ([[1, 2, 0], [1, 2, 50]], "pair_due_dates[1]: duplicate pair [1, 2]"),
        ([[0, 2, 5], [2, 0, 100]], "pair_due_dates[1]: duplicate pair [2, 0]"),
    ], ids=["same-order", "reversed"])
    def test_duplicate_relevant_pair(self, capsys, tmp_path, pairs, message):
        path = tmp_path / "dup.json"
        doc = {
            "format_version": 1, "variant": "L_ETPC", "n": 3, "depot": 0,
            "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 3]], "pair_due_dates": pairs,
        }
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 3 and stdout == ""
        assert message in err

    @pytest.mark.parametrize("data, message", [
        # every data field in the file reaches the instance, the ones its
        # variant does not take included
        ({"variant": "USRT", "weights": [1, 5, 1]}, "USRT weights must all be 1"),
        ({"variant": "SWRT", "weights": [1, 5, 1], "vertex_due_dates": [0, 0, 0]},
         "SWRT takes only weights"),
        ({"variant": "L", "vertex_due_dates": [0, 0, 0], "pair_due_dates": [[1, 2, 0]]},
         "L takes only vertex_due_dates"),
        ({"variant": "SWRT", "weights": [1, 5]}, "weights: expected 3 entries, got 2"),
        ({"variant": "USRT", "weights": [1, 1.0, 1]}, "weights[1]: expected an integer"),
        ({"variant": "L_ETPC", "pair_due_dates": [[1, 2]]}, "pair_due_dates[0]: expected [u, v, d]"),
        ({"variant": "L_ETPC", "pair_due_dates": [[1, 2, True]]},
         "pair_due_dates[0]: expected [u, v, d]"),
        ({"variant": "L_ETPC"}, "pair_due_dates: missing required field"),
    ], ids=[
        "usrt-weights", "swrt-with-due-dates", "l-with-pairs", "weights-length",
        "weights-float", "pair-short", "pair-bool", "pairs-missing",
    ])
    def test_bad_variant_data(self, capsys, tmp_path, data, message):
        path = tmp_path / "data.json"
        doc = {"format_version": 1, "n": 3, "depot": 0,
               "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 3]], **data}
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 3 and stdout == ""
        assert message in err

    @pytest.mark.parametrize(
        "family", [{"a": 1}, ["planar_road"], 7, None], ids=["dict", "list", "int", "null"]
    )
    def test_non_string_family(self, capsys, tmp_path, family):
        # the annotation lands in bench's CSV family column, so only a
        # string is taken
        path = tmp_path / "fam.json"
        doc = {"format_version": 1, "variant": "USRT", "n": 2, "depot": 0,
               "edges": [[0, 1, 1]], "family": family}
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 3 and stdout == ""
        assert "family: expected str" in err

    @pytest.mark.parametrize(
        "algo", ["mst", "mst-loc-net", "mst-loc-sch", "ils-net", "ts-sch", "oracle"]
    )
    def test_one_vertex_lateness_instance(self, capsys, tmp_path, algo):
        path = tmp_path / "one.json"
        doc = {"format_version": 1, "variant": "L", "n": 1, "depot": 0, "edges": [],
               "vertex_due_dates": [0]}
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", algo,
                                    "--max-iters", "1")
        assert code == 3 and stdout == ""
        assert "L needs at least one non-depot vertex" in err

    def test_objective_checked_against_evaluate(self, capsys, monkeypatch, tri_usrt):
        # a search result whose objective is not its schedule's is an internal
        # error, never a record
        real = netcon.cli.mst_heuristic

        def drifted(inst):
            sol = real(inst)
            return netcon.Solution(sol.tree, sol.schedule, sol.objective + 1)

        monkeypatch.setattr(netcon.cli, "mst_heuristic", drifted)
        with pytest.raises(RuntimeError, match="reports objective 4, evaluate gives 3"):
            main(["solve", tri_usrt, "--algo", "mst"])
        assert capsys.readouterr().out == ""

    def test_huge_n_without_edges(self, capsys, tmp_path):
        # rejected from the edge count before anything of size n is allocated
        path = tmp_path / "huge.json"
        doc = {"format_version": 1, "variant": "USRT", "n": 10**10, "depot": 0, "edges": []}
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst")
        assert code == 3 and stdout == ""
        assert "10000000000 vertices need at least 9999999999 edges, got 0" in err

    @pytest.mark.parametrize("length", [2**60, 2**63], ids=["2^60", "2^63"])
    def test_lengths_beyond_int64_sums(self, capsys, tmp_path, length):
        from netcon import Network

        path = tmp_path / "big.json"
        cycle = Network(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
        write_instance(ProblemInstance(cycle, USRT), path)
        doc = json.loads(path.read_text())
        doc["edges"] = [[a, b, length] for a, b, _ in doc["edges"]]
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "mst-loc-sch")
        assert code == 3 and stdout == ""
        assert "total edge length" in err


class TestOracle:
    def test_tri(self, capsys, tri_usrt):
        code, stdout, _ = run_cli(capsys, "oracle", tri_usrt)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["objective"] == 3
        assert doc["tree"] == [0, 2]

    def test_size_guard_exit(self, capsys, tmp_path):
        inst = generate(GeneratorSpec("euclidean_complete", 12, 0, USRT))
        path = tmp_path / "big.json"
        write_instance(inst, path)
        code, _, err = run_cli(capsys, "oracle", str(path))
        assert code == 3


class TestBenchReport:
    def make_dir(self, tmp_path, count=2):
        d = tmp_path / "instances"
        d.mkdir()
        for k in range(count):
            inst = generate(GeneratorSpec("euclidean_complete", 5, k, USRT))
            write_instance(inst, d / f"i{k}.json", family="euclidean_complete")
        return d

    def write_results(self, path, rows):
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instance", "variant", "family", "n", "algorithm",
                        "seed", "objective", "wall_ms", "params"])
            w.writerows(rows)

    def test_bench_then_report(self, capsys, tmp_path):
        d = self.make_dir(tmp_path)
        out = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--instances-dir", str(d),
            "--algos", "mst,mst-loc-net,oracle", "--seeds", "0", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        code, table, _ = run_cli(capsys, "report", "--results", str(out))
        assert code == 0
        parsed = list(csv.DictReader(table.splitlines()))
        oracle_rows = [r for r in parsed if r["algorithm"] == "oracle"]
        assert all(r["avg_gap"] == "0.00" for r in oracle_rows)
        assert all(int(r["num_best"]) == int(r["runs"]) for r in oracle_rows)
        for r in parsed:
            assert float(r["max_gap"]) >= float(r["avg_gap"]) >= 0.0
            assert int(r["num_best"]) <= int(r["runs"])

    def test_report_eq1_example(self, capsys, tmp_path, tri_usrt):
        res = tmp_path / "r.csv"
        self.write_results(res, [
            [tri_usrt, "USRT", "f", 3, "mst", 0, 110, 1, "{}"],
            [tri_usrt, "USRT", "f", 3, "oracle", 0, 100, 1, "{}"],
        ])
        code, table, _ = run_cli(capsys, "report", "--results", str(res))
        assert code == 0
        parsed = {r["algorithm"]: r for r in csv.DictReader(table.splitlines())}
        assert parsed["mst"]["avg_gap"] == parsed["mst"]["max_gap"] == "9.09"

    def test_report_eq2_example(self, capsys, tmp_path):
        from netcon import L, Network

        net = Network(2, ((0, 1, 60),))
        inst = ProblemInstance(net, L, vertex_due_dates=(0, 50))
        path = tmp_path / "lat.json"
        write_instance(inst, path)
        res = tmp_path / "r.csv"
        self.write_results(res, [
            [str(path), "L", "f", 2, "mst", 0, 50, 1, "{}"],
            [str(path), "L", "f", 2, "oracle", 0, 40, 1, "{}"],
        ])
        code, table, _ = run_cli(capsys, "report", "--results", str(res))
        assert code == 0
        parsed = {r["algorithm"]: r for r in csv.DictReader(table.splitlines())}
        assert parsed["mst"]["avg_gap"] == "10.00"

    def test_report_missing_objective_error(self, capsys, tmp_path, tri_usrt):
        res = tmp_path / "r.csv"
        self.write_results(res, [[tri_usrt, "USRT", "f", 3, "mst", 0, "", 1, "{}"]])
        code, _, err = run_cli(capsys, "report", "--results", str(res))
        assert code == 3
        assert tri_usrt in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "x", "--seeds:"),
        ("--seeds", ",", "--seeds: no seeds given"),
        ("--algos", ",", "--algos: no algorithms given"),
        ("--algos", "", "--algos: no algorithms given"),
        ("--algos", "x", "--algos: unknown algorithm 'x'"),
        # checked before any task runs, although mst does not use them
        ("--time-limit", "nan", "time_limit"),
        ("--time-limit", "inf", "time_limit"),
        ("--time-limit", "1e400", "time_limit"),
        ("--max-iters", "-3", "max_iters"),
        # the last --instances-dir wins; tmp_path keeps its instances in a subdirectory
        ("--instances-dir", "{tmp}", "no *.json instances found"),
    ])
    def test_bench_bad_flag(self, capsys, tmp_path, flag, value, message):
        d = self.make_dir(tmp_path, count=1)
        out = tmp_path / "res.csv"
        code, _, err = run_cli(
            capsys, "bench", "--instances-dir", str(d), "--algos", "mst",
            "--out", str(out), flag, value.format(tmp=tmp_path),
        )
        assert code == 3
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_bench_jobs_flag_removed(self, capsys, tmp_path):
        d = self.make_dir(tmp_path, count=1)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "bench", "--instances-dir", str(d), "--algos", "mst",
                "--jobs", "2", "--out", str(tmp_path / "res.csv"),
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_report_undefined_gaps(self, capsys, tmp_path):
        from netcon import L, Network

        # d_min = 50, so the gap denominator ub + 50 is positive only for ub > -50
        net = Network(2, ((0, 1, 60),))
        path = tmp_path / "lat.json"
        write_instance(ProblemInstance(net, L, vertex_due_dates=(0, 50)), path)
        res = tmp_path / "r.csv"
        self.write_results(res, [
            [str(path), "L", "f", 2, "oracle", 0, -60, 1, "{}"],
            [str(path), "L", "f", 2, "oracle", 1, -60, 1, "{}"],
            [str(path), "L", "f", 2, "mst", 0, -45, 1, "{}"],
            [str(path), "L", "f", 2, "mst", 1, -55, 1, "{}"],
        ])
        code, table, _ = run_cli(capsys, "report", "--results", str(res))
        assert code == 0
        assert table.splitlines() == [
            "variant,family,n,algorithm,runs,num_best,avg_gap,max_gap",
            "L,f,2,mst,2,0,n/a,300.00",  # 100 * 15 / 5 defined, -55 + 50 not
            "L,f,2,oracle,2,2,n/a,n/a",
        ]

    def test_report_best_file(self, capsys, tmp_path, tri_usrt):
        res, best = tmp_path / "r.csv", tmp_path / "best.csv"
        self.write_results(res, [
            [tri_usrt, "USRT", "f", 3, "mst", 0, 110, 1, "{}"],
            [tri_usrt, "USRT", "f", 3, "ts-net", 0, 105, 1, "{}"],
        ])
        self.write_results(best, [
            [tri_usrt, "USRT", "f", 3, "known", 0, 100, 0, "{}"],
            # an instance the results do not report is never read
            [str(tmp_path / "absent.json"), "L", "f", 3, "known", 0, 1, 0, "{}"],
        ])
        code, table, _ = run_cli(
            capsys, "report", "--results", str(res), "--best", str(best)
        )
        assert code == 0
        # the best file's value is the gap base; its rows are not table rows
        assert table.splitlines() == [
            "variant,family,n,algorithm,runs,num_best,avg_gap,max_gap",
            "USRT,f,3,mst,1,0,9.09,9.09",
            "USRT,f,3,ts-net,1,0,4.76,4.76",
        ]

    def test_report_bad_columns(self, capsys, tmp_path):
        res = tmp_path / "r.csv"
        res.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "report", "--results", str(res))
        assert code == 3
        assert err.startswith(f"error: {res}:1: ")

    @pytest.mark.parametrize("row, message", [
        ("t.json,USRT,f", "fewer fields than the header"),
        ('t.json,USRT,f,3,mst,0,1,1,"' + "x" * 131073 + '"', "field larger"),
        ("t.json,USRT,f,three,mst,0,1,1,{}", "invalid literal"),
    ], ids=["short-row", "oversized-field", "non-integer-n"])
    def test_report_malformed_row(self, capsys, tmp_path, row, message):
        res = tmp_path / "r.csv"
        header = "instance,variant,family,n,algorithm,seed,objective,wall_ms,params"
        res.write_text(f"{header}\n{row}\n")
        code, _, err = run_cli(capsys, "report", "--results", str(res))
        assert code == 3
        assert err.startswith(f"error: {res}:2: ") and message in err


def test_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE).group(1)
    assert netcon.__version__ == declared
