"""Command line front end: generate, solve, oracle, bench, and report."""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .instances import (
    FAMILIES,
    GeneratorSpec,
    InstanceFormatError,
    generate,
    instance_to_dict,
    read_instance,
    write_instance,
)
from .local_search import Budget, mst_heuristic, mst_loc
from .metaheuristics import DEFAULT_PARAMS, ILS, TS, run
from .model import VARIANTS, UndefinedGapError, evaluate, format_gap, gap
from .neighborhoods import NET, SCH
from .solution import Solution
from .tree_solvers import brute_force_instance

ALGORITHMS = (
    "mst",
    "mst-loc-net",
    "mst-loc-sch",
    "ils-net",
    "ils-sch",
    "ts-net",
    "ts-sch",
    "oracle",
)

CSV_COLUMNS = (
    "instance",
    "variant",
    "family",
    "n",
    "algorithm",
    "seed",
    "objective",
    "wall_ms",
    "params",
)

REPORT_COLUMNS = (
    "variant",
    "family",
    "n",
    "algorithm",
    "runs",
    "num_best",
    "avg_gap",
    "max_gap",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


@dataclass(frozen=True)
class RunRecord:
    instance: str
    variant: str
    family: str
    n: int
    algorithm: str
    seed: int
    objective: int | None
    wall_ms: int
    params: dict

    def csv_row(self) -> dict:
        return vars(self) | {
            "objective": "" if self.objective is None else self.objective,
            "params": json.dumps(self.params, sort_keys=True, allow_nan=False),
        }


def _run_algorithm(inst, algorithm: str, budget: Budget, seed: int):
    """Returns (solution, params dict)."""
    if algorithm == "mst":
        return mst_heuristic(inst), {}
    if algorithm in ("mst-loc-net", "mst-loc-sch"):
        kind = NET if algorithm.endswith("net") else SCH
        return mst_loc(inst, kind, budget), {"kind": kind}
    if algorithm == "oracle":
        obj, sched = brute_force_instance(inst)
        return Solution(sched.tree, sched, obj), {}
    meta, kind = algorithm.split("-")
    sol = run(inst, ILS if meta == "ils" else TS, kind.upper(), budget, seed)
    value = DEFAULT_PARAMS[inst.variant][f"{meta}_{kind}"]
    params: dict = {"time_limit": budget.seconds}
    if meta == "ils":
        params["shake_p"] = value
        params["accept"] = "always"  # ILS moves to every new local optimum
    else:
        params["tenure_min"], params["tenure_max"] = value
    if budget.max_iters is not None:
        params["max_iters"] = budget.max_iters
    return sol, params


def _run(path, algorithm: str, time_limit=600.0, seed=0, max_iters=None):
    """Read one instance file and time one algorithm on it.

    Returns the run record and the solution found.  Search takes objectives
    from ES(T); the reported one is checked once against ``evaluate``.
    """
    inst, family = read_instance(path)
    budget = Budget(time_limit, max_iters)
    start = time.monotonic()
    sol, params = _run_algorithm(inst, algorithm, budget, seed)
    wall_ms = int((time.monotonic() - start) * 1000)
    checked, _ = evaluate(inst, sol.schedule)
    if checked != sol.objective:
        raise RuntimeError(
            f"internal error: {algorithm} reports objective {sol.objective}, "
            f"evaluate gives {checked}"
        )
    record = RunRecord(
        instance=str(path),
        variant=inst.variant,
        family=family or "",
        n=inst.net.n,
        algorithm=algorithm,
        seed=seed,
        objective=sol.objective,
        wall_ms=wall_ms,
        params=params,
    )
    return record, sol


def _print_run(record: RunRecord, sol, **extra) -> None:
    doc = {
        "instance": record.instance,
        "variant": record.variant,
        "n": record.n,
        "algorithm": record.algorithm,
        "objective": record.objective,
        "order": list(sol.schedule.order),
        "tree": sorted(sol.tree.edge_ids),
        **extra,
    }
    # timing stays off stdout so identical runs emit identical bytes
    print(json.dumps(doc, sort_keys=True, allow_nan=False))
    print(f"wall_ms={record.wall_ms}", file=sys.stderr)


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family, n=args.n, seed=args.seed, variant=args.variant
    )
    inst = generate(spec)
    if args.output:
        write_instance(inst, args.output, family=args.family)
        print(args.output)
    else:
        print(json.dumps(instance_to_dict(inst, args.family), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    record, sol = _run(args.instance, args.algo, args.time_limit, args.seed, args.max_iters)
    _print_run(record, sol, seed=record.seed, params=record.params)
    if args.csv:
        _append_csv(args.csv, [record])
    return EXIT_OK


def cmd_oracle(args) -> int:
    _print_run(*_run(args.instance, "oracle"))
    return EXIT_OK


def _append_csv(path, records):
    path = Path(path)
    new_file = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new_file:
            writer.writeheader()
        for rec in records:
            writer.writerow(rec.csv_row())


def cmd_bench(args) -> int:
    instances = sorted(Path(args.instances_dir).glob("*.json"))
    if not instances:
        raise InstanceFormatError(args.instances_dir, "no *.json instances found")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError("--algos: no algorithms given")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"--algos: unknown algorithm {a!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds: expected comma-separated integers, got {args.seeds!r}"
        ) from None
    if not seeds:
        raise ValueError("--seeds: no seeds given")
    records = [
        _run(str(path), algo, args.time_limit, seed, args.max_iters)[0]
        for path in instances
        for algo in algos
        for seed in seeds
    ]
    records.sort(key=lambda r: (r.instance, r.algorithm, r.seed))
    _append_csv(args.out, records)
    print(args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    rows = _read_results(args.results)
    runs = len(rows)
    if args.best:
        rows += _read_results(args.best)
    # best value per reported instance over everything supplied, None until
    # a run completes; rows of the --best file only lower these values
    best: dict[str, int | None] = {}
    groups: dict[tuple, list[dict]] = {}
    for k, row in enumerate(rows):
        name, objective = row["instance"], row["objective"]
        if k >= runs and name not in best:
            continue
        best.setdefault(name, objective)
        if objective is not None:
            if best[name] is None or objective < best[name]:
                best[name] = objective
            if k < runs:
                key = (row["variant"], row["family"], row["n"], row["algorithm"])
                groups.setdefault(key, []).append(row)
    missing = sorted(name for name, value in best.items() if value is None)
    if missing:
        raise InstanceFormatError(
            "results", "no completed run for instances: " + ", ".join(missing)
        )
    d_min_of = functools.cache(lambda name: read_instance(name)[0].d_min())
    table = []
    for key, group in sorted(groups.items()):
        variant = key[0]
        gaps = []  # defined gaps only
        for row in group:
            name = row["instance"]
            d_min = 0 if variant in ("USRT", "SWRT") else d_min_of(name)
            with contextlib.suppress(UndefinedGapError):
                gaps.append(gap(row["objective"], best[name], d_min, variant))
        n_best = sum(row["objective"] == best[row["instance"]] for row in group)
        avg = format_gap(sum(gaps) / len(gaps)) if len(gaps) == len(group) else "n/a"
        worst = format_gap(max(gaps)) if gaps else "n/a"
        table.append((*key, len(group), n_best, avg, worst))
    stdout = contextlib.nullcontext(sys.stdout)
    with open(args.out, "w", newline="", encoding="utf-8") if args.out else stdout as out:
        writer = csv.writer(out)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(table)
    return EXIT_OK


def _read_results(path) -> list[dict]:
    """Parse a results CSV; every malformed part raises ``<path>:<line>: ...``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        try:
            if set(CSV_COLUMNS) - set(reader.fieldnames or ()):
                raise ValueError("missing required CSV columns")
            for raw in reader:
                if None in raw.values():
                    raise ValueError("fewer fields than the header")
                objective = int(raw["objective"]) if raw["objective"] else None
                rows.append({**raw, "n": int(raw["n"]), "seed": int(raw["seed"]),
                             "objective": objective})
        except (ValueError, csv.Error) as exc:
            # DictReader.line_num lags a failed read; its inner reader counts that line
            line = reader.reader.line_num or 1
            raise InstanceFormatError(f"{path}:{line}", str(exc)) from exc
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcon", description="Network construction scheduling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a benchmark instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("instance")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--csv", help="append the run record to this CSV file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search (size-guarded)")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run an algorithm grid over an instance directory")
    p.add_argument("--instances-dir", required=True)
    p.add_argument("--algos", required=True, help="comma-separated algorithm labels")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="per-group gap table from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--best", help="extra CSV contributing best-known values")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every netcon error type is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
