"""The unit moved through search: a tree, its optimal order, its objective."""
from __future__ import annotations

from dataclasses import dataclass

from .graph import SpanningTree
from .model import EdgeSchedule, ProblemInstance
from .tree_solvers import _solve


@dataclass(frozen=True)
class Solution:
    tree: SpanningTree
    schedule: EdgeSchedule
    objective: int


def solve_tree(inst: ProblemInstance, tree: SpanningTree) -> Solution:
    """ES(T) and the objective it returns, wrapped as a Solution."""
    sched, obj = _solve(inst, tree)
    return Solution(tree, sched, obj)
