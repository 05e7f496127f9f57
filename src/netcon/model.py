"""Problem instances, schedule evaluation, and derived sequences."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .graph import Network, SpanningTree, _as_int, _UnionFind

USRT = "USRT"
SWRT = "SWRT"
L = "L"
L_ETPC = "L_ETPC"
VARIANTS = (USRT, SWRT, L, L_ETPC)
IT_VARIANTS = (USRT, SWRT, L)


class ModelError(ValueError):
    pass


class InfeasibleScheduleError(ModelError):
    """An IT order whose prefix is not a connected depot subtree."""

    def __init__(self, position: int, edge_id: int):
        self.position = position
        self.edge_id = edge_id
        super().__init__(
            f"edge {edge_id} at position {position} touches neither the depot "
            f"nor the already built part"
        )


class UnsupportedVariantError(ModelError):
    pass


class UndefinedGapError(ModelError):
    """Gap denominator is not positive."""


@dataclass(frozen=True)
class ProblemInstance:
    """A network plus the objective data of one problem variant.

    ``weights`` (USRT/SWRT) and ``vertex_due_dates`` (L) are per-vertex tuples
    of length n; the depot entry is ignored.  ``pair_due_dates`` (L_ETPC) maps
    sorted vertex pairs to due dates; pairs present are the relevant pairs.
    """

    net: Network
    variant: str
    weights: tuple[int, ...] | None = None
    vertex_due_dates: tuple[int, ...] | None = None
    pair_due_dates: dict[tuple[int, int], int] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}")
        n = self.net.n
        if self.variant == USRT and self.weights is None:
            object.__setattr__(self, "weights", (1,) * n)
        if self.variant in (USRT, SWRT):
            if self.weights is None or len(self.weights) != n:
                raise ModelError("weights: expected one value per vertex")
            weights = tuple(_as_int(w, "weight", ModelError) for w in self.weights)
            if any(w < 0 for w in weights):
                raise ModelError("weights must be nonnegative")
            if self.variant == USRT and any(w != 1 for w in weights):
                raise ModelError("USRT weights must all be 1")
            object.__setattr__(self, "weights", weights)
            if self.vertex_due_dates is not None or self.pair_due_dates is not None:
                raise ModelError(f"{self.variant} takes only weights")
        elif self.variant == L:
            if self.vertex_due_dates is None or len(self.vertex_due_dates) != n:
                raise ModelError("vertex_due_dates: expected one value per vertex")
            due = tuple(_as_int(d, "vertex due date", ModelError) for d in self.vertex_due_dates)
            object.__setattr__(self, "vertex_due_dates", due)
            if self.weights is not None or self.pair_due_dates is not None:
                raise ModelError("L takes only vertex_due_dates")
            if n < 2:
                # the maximum lateness over no vertices is undefined
                raise ModelError("L needs at least one non-depot vertex")
        else:
            if not self.pair_due_dates:
                raise ModelError("pair_due_dates: at least one relevant pair required")
            if self.weights is not None or self.vertex_due_dates is not None:
                raise ModelError("L_ETPC takes only pair_due_dates")
            norm = {}
            for (u, v), d in self.pair_due_dates.items():
                u, v = _as_int(u, "pair vertex", ModelError), _as_int(v, "pair vertex", ModelError)
                if u == v:
                    raise ModelError(f"pair ({u}, {v}) has equal vertices")
                if not (0 <= u < n and 0 <= v < n):
                    raise ModelError(f"pair ({u}, {v}) out of range")
                if (key := (min(u, v), max(u, v))) in norm:
                    raise ModelError(f"pair {key} given twice")
                norm[key] = _as_int(d, "pair due date", ModelError)
            object.__setattr__(self, "pair_due_dates", norm)

    @cached_property
    def pairs_by_due_date(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """``(pair, due date)`` items in ascending due date; the sort is
        stable, so equal due dates keep the input order."""
        return tuple(sorted(self.pair_due_dates.items(), key=lambda item: item[1]))

    @cached_property
    def scaled_weights(self) -> tuple[int, ...]:
        """USRT/SWRT: each weight times L**2, L the network's total length."""
        scale = self.net.total_length**2
        return tuple(w * scale for w in self.weights)

    @cached_property
    def due_ranks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """L: ``(rank, by_rank)``, the vertices by descending due date (tie:
        ascending vertex) and each vertex's position in that order."""
        due = self.vertex_due_dates
        by_rank = tuple(sorted(range(self.net.n), key=lambda v: (-due[v], v)))
        rank = [0] * self.net.n
        for r, v in enumerate(by_rank):
            rank[v] = r
        return tuple(rank), by_rank

    @property
    def q(self) -> int:
        return len(self.pair_due_dates)

    def d_min(self) -> int:
        """Smallest due date in the instance (lateness variants only)."""
        if self.variant == L:
            return min(
                d for v, d in enumerate(self.vertex_due_dates) if v != self.net.depot
            )
        if self.variant == L_ETPC:
            return min(self.pair_due_dates.values())
        raise UnsupportedVariantError(f"{self.variant} has no due dates")


@dataclass(frozen=True)
class EdgeSchedule:
    """An ordered construction sequence for a spanning tree's edges."""

    tree: SpanningTree
    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(self.tree.edge_ids):
            raise ModelError("order must be a permutation of the tree's edge ids")


@dataclass(frozen=True)
class PSequence:
    """Vertex pairs grouped into p-groups by the connecting essential edge.

    ``group_starts`` has one index per essential edge; group k spans
    ``order[group_starts[k]:group_starts[k + 1]]``.  Empty groups are kept so
    pair-shift targets stay well-defined for reduced sequences.
    """

    order: tuple[tuple[int, int], ...]
    group_starts: tuple[int, ...]


def check_it_feasible(net: Network, sched: EdgeSchedule) -> bool:
    """True iff every prefix of the order forms a connected depot subtree."""
    try:
        _recovery_times(net, sched)
    except InfeasibleScheduleError:
        return False
    return True


def _recovery_times(net: Network, sched: EdgeSchedule) -> dict[int, int]:
    """Recovery time per non-depot vertex, keyed in recovery order; raises on
    infeasible IT orders."""
    spanned = [False] * net.n
    spanned[net.depot] = True
    t = 0
    times: dict[int, int] = {}
    for pos, eid in enumerate(sched.order):
        a, b, w = net.edges[eid]
        if not (spanned[a] or spanned[b]):
            raise InfeasibleScheduleError(pos, eid)
        t += w
        new = b if spanned[a] else a
        spanned[new] = True
        times[new] = t
    return times


def evaluate(inst: ProblemInstance, sched: EdgeSchedule):
    """Objective value plus the recovery / connection times behind it."""
    if inst.variant in IT_VARIANTS:
        times = _recovery_times(inst.net, sched)
        if inst.variant in (USRT, SWRT):
            obj = sum(inst.weights[v] * t for v, t in times.items())
        else:
            obj = max(t - inst.vertex_due_dates[v] for v, t in times.items())
        return obj, times
    # a pair connects when its group's edge completes
    seq = pairs_connection_sequence(inst, sched, reduced=True)
    ends = seq.group_starts[1:] + (len(seq.order),)
    completions = accumulate(inst.net.edges[eid][2] for eid in sched.order)
    times = {
        pair: t
        for start, end, t in zip(seq.group_starts, ends, completions)
        for pair in seq.order[start:end]
    }
    obj = max(times[p] - d for p, d in inst.pair_due_dates.items())
    return obj, times


def vertex_recovery_sequence(inst: ProblemInstance, sched: EdgeSchedule) -> tuple[int, ...]:
    """Non-depot vertices in order of recovery (one per edge completion)."""
    if inst.variant not in IT_VARIANTS:
        raise UnsupportedVariantError(
            f"vertex recovery is undefined for variant {inst.variant}"
        )
    return tuple(_recovery_times(inst.net, sched))


def pairs_connection_sequence(
    inst: ProblemInstance, sched: EdgeSchedule, reduced: bool = False
) -> PSequence:
    """Pairs grouped by the connecting edge, lexicographic within a group.

    The full form covers all pairs; the reduced form keeps only the relevant
    pairs of an L_ETPC instance, retaining empty groups as boundaries.
    """
    net = inst.net
    wanted = inst.pair_due_dates if reduced else None
    uf = _UnionFind(net.n)
    members: list[list[int]] = [[v] for v in range(net.n)]
    order: list[tuple[int, int]] = []
    starts: list[int] = []
    for eid in sched.order:
        starts.append(len(order))
        a, b, _ = net.edges[eid]
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        group = sorted(
            (min(u, v), max(u, v)) for u in members[ra] for v in members[rb]
        )
        if wanted is not None:
            group = [p for p in group if p in wanted]
        order.extend(group)
        uf.union(ra, rb)
        keep, drop = min(ra, rb), max(ra, rb)
        members[keep].extend(members[drop])
        members[drop] = []
    return PSequence(tuple(order), tuple(starts))


def gap(ub: int, best: int, d_min: int | None, variant: str) -> Fraction:
    """Relative optimality gap in percent, as an exact rational."""
    if ub < best:
        raise ModelError(f"ub {ub} smaller than best {best}")
    if variant in (USRT, SWRT):
        denom = ub
    else:
        if d_min is None:
            raise ModelError(f"variant {variant} needs d_min")
        denom = ub + d_min
    if denom <= 0:
        raise UndefinedGapError(f"gap denominator {denom} is not positive")
    return Fraction(100 * (ub - best), denom)


def format_gap(value: Fraction) -> str:
    """Render an exact percentage with two decimals (round half up)."""
    scaled = value * 100
    whole = (scaled.numerator + scaled.denominator // 2) // scaled.denominator
    return f"{whole // 100}.{whole % 100:02d}"
