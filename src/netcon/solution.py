"""The unit moved through search: a tree, its optimal order, its objective."""
from __future__ import annotations

from .graph import SpanningTree
from .model import EdgeSchedule, ProblemInstance
from .tree_solvers import kernel


class Solution:
    """A read-only (tree, schedule, objective), equal to another when all
    three are.  ``deferred`` builds the tree and schedule on first read."""

    __slots__ = ("_objective", "_tree", "_schedule", "_pending")

    def __init__(self, tree: SpanningTree, schedule: EdgeSchedule, objective: int):
        self._tree, self._schedule, self._objective, self._pending = tree, schedule, objective, None

    @classmethod
    def deferred(cls, inst: ProblemInstance, objective: int, edges) -> "Solution":
        """A Solution of ``objective`` on the tree of the edge ids ``edges``; on
        first read ``solve_tree`` solves that tree and must return ``objective``."""
        sol = cls(None, None, objective)
        sol._pending = inst, edges
        return sol

    def _built(self) -> "Solution":
        if self._pending is not None:
            inst, edges = self._pending
            built = solve_tree(inst, SpanningTree.from_edges(inst.net, edges))
            if built._objective != self._objective:
                raise RuntimeError(
                    f"deferred objective {self._objective} differs from ES(T)'s "
                    f"{built._objective} on the rebuilt tree"
                )
            self._tree, self._schedule, self._pending = built._tree, built._schedule, None
        return self

    objective = property(lambda self: self._objective)
    tree = property(lambda self: self._built()._tree)
    schedule = property(lambda self: self._built()._schedule)

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return (self.tree, self.schedule, self.objective) == (other.tree, other.schedule, other.objective)

    def __repr__(self) -> str:
        return f"Solution(tree={self.tree!r}, schedule={self.schedule!r}, objective={self.objective!r})"


def solve_tree(inst: ProblemInstance, tree: SpanningTree) -> Solution:
    """ES(T) and the objective it returns, wrapped as a Solution."""
    order, obj = kernel(inst)(inst, tree.parent)
    return Solution(tree, EdgeSchedule(tree, order), obj)
