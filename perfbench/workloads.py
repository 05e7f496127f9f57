"""Workloads: fixed task grids whose instances are drawn from the workload seed.

A task is one ``netcon solve`` call on one instance file.  The grid (family,
variant, size and algorithm of every task) is fixed per workload; the seed only
chooses the instance data and the solver seeds.  Every task gets an instance
of its own, so the time of a grid sums many independent draws.
"""
from __future__ import annotations

import random
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

from netcon import instances as netcon_instances
from netcon.instances import GeneratorSpec
from netcon.model import IT_VARIANTS, L_ETPC, VARIANTS

WORK_DIR = Path(".perfbench_work")
DENSE_FAMILIES = ("euclidean_complete", "random_metric")


@dataclass(frozen=True)
class Task:
    tid: str  # stable name; keys the reference digests
    path: str  # instance file, relative to the checkout root
    spec: GeneratorSpec
    algo: str
    seed: int  # solver seed
    max_iters: int | None = None

    def argv(self) -> list[str]:
        argv = ["solve", self.path, "--algo", self.algo, "--seed", str(self.seed)]
        if self.max_iters is not None:
            argv += ["--max-iters", str(self.max_iters)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_repeats: int
    cells: tuple  # (family, variant, n, algo, max_iters) per task

    def tasks(self, seed: int) -> list[Task]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for k, (family, variant, n, algo, max_iters) in enumerate(self.cells):
            spec = GeneratorSpec(family, n, rng.randrange(2**31), variant)
            tid = f"{k:03d}-{family}-{variant}-n{n}-{algo}"
            path = (WORK_DIR / self.name / f"t{k:03d}.json").as_posix()
            out.append(Task(tid, path, spec, algo, rng.randrange(1000), max_iters))
        return out


def _dense_cells(kind: str, reps: int, it_n: int, etpc_n: int, iters: int) -> tuple:
    cells = []
    for _ in range(reps):
        for family in DENSE_FAMILIES:
            for variant in VARIANTS:
                n = etpc_n if variant == L_ETPC else it_n
                cells.append((family, variant, n, f"mst-loc-{kind}", None))
                cells.append((family, variant, n, f"ils-{kind}", iters))
                cells.append((family, variant, n, f"ts-{kind}", iters))
    return tuple(cells)


def _road_cells(reps: int, loc_n: int, mst_n: int) -> tuple:
    cells = [
        ("planar_road", variant, loc_n, "mst-loc-net", None)
        for _ in range(reps)
        for variant in IT_VARIANTS
    ]
    cells += [("planar_road", variant, mst_n, "mst", None) for variant in IT_VARIANTS]
    return tuple(cells)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "net-dense",
            "NET search on complete graphs: one tree rebuild, one ES(T) and one "
            "evaluate per neighbour, all four variants",
            5,
            _dense_cells("net", 8, 12, 9, 1),
        ),
        Workload(
            "sch-dense",
            "SCH search on complete graphs: a_it reads the oracle, a_et writes "
            "contracted copies, all four variants",
            5,
            _dense_cells("sch", 12, 12, 7, 1),
        ),
        Workload(
            "road-sparse",
            "sparse planar trees on IT variants: quadratic ES(T) dominates "
            "and planar generation loads set-up",
            3,
            _road_cells(60, 35, 250),
        ),
    )
}


def prepare(workload: str) -> None:
    """Empty the workload's instance directory."""
    root = WORK_DIR / workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)


def make_instance(task: Task):
    """Generate and write one task's instance file; returns the instance."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # planar targets above reach are fine here
        # looked up on the module so that traced runs see the wrappers
        inst = netcon_instances.generate(task.spec)
    netcon_instances.write_instance(inst, task.path, family=task.spec.family)
    return inst


def setup(tasks: list[Task], workload: str) -> dict:
    """Generate and write every task's instance file; returns path -> instance."""
    prepare(workload)
    return {task.path: make_instance(task) for task in tasks}
