"""Tabu Search and Iterated Local Search over both neighborhood kinds."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .graph import SpanningTree, _UnionFind, kruskal
from .model import IT_VARIANTS, ProblemInstance
from .neighborhoods import NET, SCH, apply_shift, enumerate_shifts, neighbors, rebuild, sequence
from .local_search import Budget, impr, loc, mst_loc
from .solution import Solution, solve_tree

ILS = "ILS"
TS = "TS"

# Recommended control parameters per variant:
# (ILS-NET shake, ILS-SCH shake, TS-NET tenure limits, TS-SCH tenure limits)
DEFAULT_PARAMS: dict[str, dict[str, object]] = {
    "USRT": {"ils_net": 0.11, "ils_sch": 0.36, "ts_net": (5, 17), "ts_sch": (4, 12)},
    "SWRT": {"ils_net": 0.24, "ils_sch": 0.35, "ts_net": (6, 16), "ts_sch": (5, 11)},
    "L": {"ils_net": 0.23, "ils_sch": 0.46, "ts_net": (7, 14), "ts_sch": (7, 17)},
    "L_ETPC": {"ils_net": 0.03, "ils_sch": 0.14, "ts_net": (7, 14), "ts_sch": (5, 17)},
}


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str  # ILS or TS
    kind: str  # NET or SCH
    time_limit: float = 600.0
    seed: int = 0
    shake_p: float | None = None  # ILS
    tenure_min: int | None = None  # TS
    tenure_max: int | None = None  # TS
    max_iters: int | None = None  # optional deterministic stopping point
    target_objective: int | None = None  # stop early once reached

    def __post_init__(self):
        if self.algorithm not in (ILS, TS):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.kind not in (NET, SCH):
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if self.shake_p is not None and not 0.0 <= self.shake_p <= 1.0:
            raise ValueError("shake_p must be within [0, 1]")
        check_limits(self.time_limit, self.max_iters)
        if (
            self.tenure_min is not None
            and self.tenure_max is not None
            and not 0 < self.tenure_min <= self.tenure_max
        ):
            raise ValueError("need 0 < tenure_min <= tenure_max")


def check_limits(time_limit: float, max_iters: int | None) -> None:
    """Reject a NaN, infinite or negative time limit (no deadline is ever
    reached at NaN, and a run record cannot hold either in JSON) and a
    negative iteration cap."""
    if not 0 <= time_limit < math.inf:
        raise ValueError(f"time_limit must be a finite number >= 0, got {time_limit}")
    if max_iters is not None and max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")


def default_config(variant: str, algorithm: str, kind: str, **overrides) -> SearchConfig:
    """Config populated with the recommended parameters for the variant."""
    return _fill_defaults(variant, SearchConfig(algorithm=algorithm, kind=kind, **overrides))


def _fill_defaults(variant: str, cfg: SearchConfig) -> SearchConfig:
    """Each unset control parameter of the config's algorithm, taken from
    DEFAULT_PARAMS; parameters already set are kept."""
    default = DEFAULT_PARAMS[variant][f"{cfg.algorithm.lower()}_{cfg.kind.lower()}"]
    if cfg.algorithm == ILS:
        return replace(cfg, shake_p=default if cfg.shake_p is None else cfg.shake_p)
    lo, hi = default
    return replace(
        cfg,
        tenure_min=lo if cfg.tenure_min is None else cfg.tenure_min,
        tenure_max=hi if cfg.tenure_max is None else cfg.tenure_max,
    )


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


def iterated_local_search(inst: ProblemInstance, cfg: SearchConfig) -> Solution:
    """ILS: MST-LOC start, then shake / descend cycles until the time limit."""
    if cfg.algorithm != ILS:
        raise ValueError("config is not an ILS config")
    cfg = _fill_defaults(inst.variant, cfg)
    rng = random.Random(cfg.seed)
    budget = Budget(cfg.time_limit, cfg.max_iters, cfg.target_objective)
    incumbent = best = mst_loc(inst, cfg.kind, budget)
    while budget.next_iteration(best):
        shaken = shake(inst, incumbent, cfg.kind, cfg.shake_p, rng)
        local = loc(inst, shaken, cfg.kind, budget)
        if local.objective < best.objective:
            best = local
        incumbent = local
    return best


def tabu_search(inst: ProblemInstance, cfg: SearchConfig) -> Solution:
    """TS: full-neighborhood steps with per-item tabu tenures."""
    if cfg.algorithm != TS:
        raise ValueError("config is not a TS config")
    cfg = _fill_defaults(inst.variant, cfg)
    rng = random.Random(cfg.seed)
    budget = Budget(cfg.time_limit, cfg.max_iters, cfg.target_objective)
    incumbent = best = mst_loc(inst, cfg.kind, budget)
    tabu = TabuList()
    while budget.next_iteration(best):
        best_nb = None  # (objective, tabu attributes, solution)
        best_free = None
        for attrs, sol in neighbors(inst, incumbent, cfg.kind):
            if best_nb is None or sol.objective < best_nb[0]:
                best_nb = (sol.objective, attrs, sol)
            if not any(tabu.active(x, budget.iteration) for x in attrs) and (
                best_free is None or sol.objective < best_free[0]
            ):
                best_free = (sol.objective, attrs, sol)
            if budget.expired():
                break
        if best_nb is None:
            break  # degenerate: no neighborhood at all
        if best_nb[0] < best.objective:
            incumbent = best = impr(inst, best_nb[2])
            tabu.clear()
        else:
            step = best_free if best_free is not None else best_nb
            incumbent = step[2]
            for item in step[1]:
                tenure = rng.randint(cfg.tenure_min, cfg.tenure_max)
                tabu.add(item, budget.iteration + tenure)
    return best


def run(inst: ProblemInstance, cfg: SearchConfig) -> Solution:
    if cfg.algorithm == ILS:
        return iterated_local_search(inst, cfg)
    return tabu_search(inst, cfg)
