"""Solution improvement, first-improvement local search, and the MST heuristics."""
from __future__ import annotations

import math
import time

from .graph import minimum_spanning_tree
from .model import ProblemInstance
from .neighborhoods import neighbors, rebuild, sequence
from .solution import Solution, solve_tree

__all__ = ["Budget", "Solution", "solve_tree", "impr", "loc", "mst_heuristic", "mst_loc"]


def check_limits(time_limit: float, max_iters: int | None) -> None:
    """Reject a NaN, infinite or negative time limit (no deadline is ever
    reached at NaN, and a run record cannot hold either in JSON) and a
    negative iteration cap."""
    if not 0 <= time_limit < math.inf:
        raise ValueError(f"time_limit must be a finite number >= 0, got {time_limit}")
    if max_iters is not None and max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")


class Budget:
    """The context of one search run: a monotonic deadline ``seconds`` from
    now, an optional iteration cap, an optional target objective, and the
    iterations counted so far.  A search uses its budget up, so every run
    takes a new one."""

    def __init__(self, seconds: float, max_iters: int | None = None, target: int | None = None):
        check_limits(seconds, max_iters)
        self.end = time.monotonic() + seconds
        self.max_iters = max_iters
        self.target = target
        self.iteration = 0

    def expired(self) -> bool:
        return time.monotonic() >= self.end

    def next_iteration(self, best: Solution) -> bool:
        """False once time is up, the target is reached or the cap is used
        up; otherwise counts one more iteration."""
        if self.expired() or (self.target is not None and best.objective <= self.target):
            return False
        if self.max_iters is not None and self.iteration >= self.max_iters:
            return False
        self.iteration += 1
        return True


def impr(inst: ProblemInstance, s0: Solution) -> Solution:
    """Rebuild the tree from the solution's own recovery / connection sequence
    and keep iterating while that strictly improves the objective.

    The rebuilt solution is never worse than the input; internal
    transportation variants use the vertex recovery sequence, the external
    variant the full pairs connection sequence.
    """
    cur = s0
    while True:
        order, _ = sequence(inst, cur.schedule, False)
        cand = rebuild(inst, order)
        if cand.objective < cur.objective:
            cur = cand
        else:
            return cur


def loc(inst: ProblemInstance, a: Solution, kind: str, budget: Budget | None = None) -> Solution:
    """First-improvement descent; every accepted neighbor passes through impr.
    Once the budget's deadline has passed the current solution is returned."""
    improved = True
    while improved:
        improved = False
        for _, sol in neighbors(inst, a, kind):
            if budget is not None and budget.expired():
                return a
            if sol.objective < a.objective:
                a = impr(inst, sol)
                improved = True
                break
    return a


def mst_heuristic(inst: ProblemInstance) -> Solution:
    """Minimum spanning tree with its optimal construction order."""
    return solve_tree(inst, minimum_spanning_tree(inst.net))


def mst_loc(inst: ProblemInstance, kind: str, budget: Budget | None = None) -> Solution:
    """MST start followed by local search with the given neighborhood kind."""
    return loc(inst, mst_heuristic(inst), kind, budget)
