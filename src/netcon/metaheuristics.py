"""Tabu Search and Iterated Local Search over both neighborhood kinds."""
from __future__ import annotations

import math
import random

from .graph import SpanningTree, _UnionFind, kruskal
from .model import IT_VARIANTS, ProblemInstance
from .neighborhoods import KINDS, NET, apply_shift, enumerate_shifts, neighbors, rebuild, sequence
from .local_search import Budget, impr, loc, mst_loc
from .solution import Solution, solve_tree

ILS = "ILS"
TS = "TS"

# The control parameters of every search, per variant:
# (ILS-NET shake, ILS-SCH shake, TS-NET tenure limits, TS-SCH tenure limits)
DEFAULT_PARAMS: dict[str, dict[str, object]] = {
    "USRT": {"ils_net": 0.11, "ils_sch": 0.36, "ts_net": (5, 17), "ts_sch": (4, 12)},
    "SWRT": {"ils_net": 0.24, "ils_sch": 0.35, "ts_net": (6, 16), "ts_sch": (5, 11)},
    "L": {"ils_net": 0.23, "ils_sch": 0.46, "ts_net": (7, 14), "ts_sch": (7, 17)},
    "L_ETPC": {"ils_net": 0.03, "ils_sch": 0.14, "ts_net": (7, 14), "ts_sch": (5, 17)},
}


class TabuList:
    """Items (edge or vertex ids) with expiry iterations."""

    def __init__(self):
        self.entries: dict[int, int] = {}

    def add(self, item: int, until: int):
        self.entries[item] = max(until, self.entries.get(item, -1))

    def active(self, item: int, iteration: int) -> bool:
        return self.entries.get(item, -1) >= iteration

    def clear(self):
        self.entries.clear()


def shake(inst: ProblemInstance, s: Solution, kind: str, p: float, rng: random.Random) -> Solution:
    """Random perturbation of a solution, controlled by p."""
    if kind == NET:
        return _shake_net(inst, s, p, rng)
    if inst.variant in IT_VARIANTS:
        return _shake_vertex(inst, s, p, rng)
    return _shake_pair(inst, s, p, rng)


def _shake_net(inst, s, p, rng) -> Solution:
    net = inst.net
    uf = _UnionFind(net.n)
    kept = kruskal(net.edges, uf, [eid for eid in s.tree.edge_ids if rng.random() >= p])
    candidates = list(range(net.m))
    rng.shuffle(candidates)
    return solve_tree(inst, SpanningTree.from_edges(net, kept + kruskal(net.edges, uf, candidates)))


def _shake_vertex(inst, s, p, rng) -> Solution:
    order, _ = sequence(inst, s.schedule, True)
    for _ in range(math.ceil(p * (inst.net.n - 1))):
        if len(order) < 2:
            break
        j = rng.randrange(1, len(order))
        order = apply_shift(order, j, rng.randrange(j))
    return rebuild(inst, order)


def _shake_pair(inst, s, p, rng) -> Solution:
    cur = s
    for _ in range(math.ceil(p * inst.q)):
        order, starts = sequence(inst, cur.schedule, True)
        options = list(enumerate_shifts(starts, len(order)))
        if not options:
            break
        j, i = options[rng.randrange(len(options))]
        cur = rebuild(inst, apply_shift(order, j, i))
    return cur


def iterated_local_search(inst: ProblemInstance, kind: str, budget: Budget, seed=0) -> Solution:
    """ILS: MST-LOC start, then shake / descend cycles until the budget is
    used up; the shake probability is the variant's DEFAULT_PARAMS entry."""
    p = DEFAULT_PARAMS[inst.variant][f"ils_{kind.lower()}"]
    rng = random.Random(seed)
    incumbent = best = mst_loc(inst, kind, budget)
    while budget.next_iteration(best):
        shaken = shake(inst, incumbent, kind, p, rng)
        local = loc(inst, shaken, kind, budget)
        if local.objective < best.objective:
            best = local
        incumbent = local
    return best


def tabu_search(inst: ProblemInstance, kind: str, budget: Budget, seed=0) -> Solution:
    """TS: full-neighborhood steps with per-item tabu tenures drawn from the
    variant's DEFAULT_PARAMS limits.  While no item is tabu, a tree the
    budget holds as a proven local optimum (the MST-LOC start) steps to the
    first minimum neighbour that ``loc`` recorded, with no scan."""
    tenure_min, tenure_max = DEFAULT_PARAMS[inst.variant][f"ts_{kind.lower()}"]
    rng = random.Random(seed)
    incumbent = best = mst_loc(inst, kind, budget)
    tabu = TabuList()
    while budget.next_iteration(best):
        if not tabu.entries and budget.proved(inst, kind, incumbent):
            best_nb = best_free = budget.optimum_neighbour  # the scan loc already made
        else:
            best_nb = best_free = None  # (tabu attributes, solution)
            for nb in neighbors(inst, incumbent, kind, budget):
                obj = nb[1].objective
                if best_nb is None or obj < best_nb[1].objective:
                    best_nb = nb
                if (best_free is None or obj < best_free[1].objective) and not any(
                    tabu.active(x, budget.iteration) for x in nb[0]
                ):
                    best_free = nb
                    budget.cutoff = obj  # best_nb <= best_free: neither takes a neighbour at or above it
        if best_nb is None:
            break  # degenerate: no neighborhood, or the deadline came before its first neighbour
        if best_nb[1].objective < best.objective:
            incumbent = best = impr(inst, best_nb[1])
            tabu.clear()
        else:
            attrs, incumbent = best_free if best_free is not None else best_nb
            for item in attrs:
                tenure = rng.randint(tenure_min, tenure_max)
                tabu.add(item, budget.iteration + tenure)
    return best


def run(inst: ProblemInstance, algorithm: str, kind: str, budget: Budget, seed=0) -> Solution:
    """ILS or TS with the given neighborhood kind, stopped by the budget."""
    if kind not in KINDS:
        raise ValueError(f"unknown neighborhood kind {kind!r}")
    if algorithm == ILS:
        return iterated_local_search(inst, kind, budget, seed)
    if algorithm == TS:
        return tabu_search(inst, kind, budget, seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")
