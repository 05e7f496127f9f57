"""Solution improvement, first-improvement local search, and the MST heuristics."""
from __future__ import annotations

import math
import time

from .graph import _as_int, minimum_spanning_tree
from .model import ProblemInstance
from .neighborhoods import neighbors, rebuild, sequence
from .solution import Solution, solve_tree

__all__ = ["Budget", "Solution", "solve_tree", "impr", "loc", "mst_heuristic", "mst_loc"]


class Budget:
    """The context of one search run: a monotonic deadline ``seconds`` from
    now, an optional iteration cap, an optional target objective, the
    iterations counted so far, the running scan's ``cutoff`` (``neighbors``)
    and the last local optimum ``loc`` proved.
    A search uses its budget up, so every run takes a new one.  ``seconds``
    is finite, >= 0 and no bool (NaN never expires; a run record's JSON holds
    neither), ``max_iters`` None or, by the instance data's rule, an int >= 0.

    The optimum is recorded when a ``loc`` scan ends before the deadline with
    no improving neighbour, as the instance (compared by identity), the kind,
    the tree's ``edge_ids`` and the scan's first minimum neighbour
    ``(attrs, Solution)``, or None if the neighbourhood was empty.  ``loc``
    returns a recorded tree at once, and TS with an empty tabu list takes
    the recorded neighbour as its step.  Both are exact:
    - every searched objective comes from the ES kernel on the neighbour's
      parent map; a deferred tree and schedule are rebuilt and checked
      against it, so the neighbour stream depends only on (instance, kind,
      tree);
    - ``loc`` from a tree with no improving neighbour returns that tree,
      whether its scan finishes or the deadline stops it;
    - with no tabu item, TS's best free neighbour is its best neighbour,
      the first strict minimum of the stream."""

    def __init__(self, seconds: float, max_iters: int | None = None, target: int | None = None):
        if isinstance(seconds, bool) or not 0 <= seconds < math.inf:
            raise ValueError(f"time_limit must be a finite number >= 0, got {seconds!r}")
        if max_iters is not None and _as_int(max_iters, "max_iters", ValueError) < 0:
            raise ValueError(f"max_iters must be >= 0, got {max_iters}")
        self.seconds = seconds
        self.end = time.monotonic() + seconds
        self.max_iters = max_iters
        self.target = target
        self.iteration = 0
        self.optimum = None  # (instance, kind, edge_ids) of loc's last proven local optimum
        self.optimum_neighbour = None  # its scan's first minimum (attrs, Solution), or None
        self.cutoff = math.inf  # the running scan yields only neighbours below it

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

    def proved(self, inst: ProblemInstance, kind: str, s: Solution) -> bool:
        """Whether ``loc`` proved ``s``'s tree a local optimum of this instance and kind."""
        rec = self.optimum
        return rec is not None and rec[0] is inst and rec[1] == kind and rec[2] == s.tree.edge_ids


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


def loc(inst: ProblemInstance, a: Solution, kind: str, budget: Budget) -> Solution:
    """First-improvement descent; every accepted neighbor passes through impr.
    Once the budget's deadline has passed the current solution is returned.
    A scan the deadline did not cut that finds no improving neighbour is
    recorded on the budget; a tree it holds as proven is returned at once."""
    while not budget.proved(inst, kind, a):
        first_min = None  # the scan's first minimum (attrs, Solution)
        for nb in neighbors(inst, a, kind, budget):
            sol = nb[1]
            if sol.objective < a.objective:
                a = impr(inst, sol)
                break
            if first_min is None or sol.objective < first_min[1].objective:
                first_min = nb
                budget.cutoff = sol.objective  # a later neighbour at or above it cannot matter
        else:
            if not budget.expired():  # a scan the deadline cut proves nothing
                budget.optimum = (inst, kind, a.tree.edge_ids)
                budget.optimum_neighbour = first_min
            return a
    return a


def mst_heuristic(inst: ProblemInstance) -> Solution:
    """Minimum spanning tree with its optimal construction order."""
    return solve_tree(inst, minimum_spanning_tree(inst.net))


def mst_loc(inst: ProblemInstance, kind: str, budget: Budget) -> Solution:
    """MST start followed by local search with the given neighborhood kind."""
    return loc(inst, mst_heuristic(inst), kind, budget)
