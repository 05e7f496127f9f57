"""Instance generation for the three benchmark families, plus JSON (de)serialization.

All geometry is integer-only (grid coordinates, rounded distances), so the
same seed reproduces the same instance on any platform.
"""
from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import Network, _floyd_warshall, _UnionFind, kruskal, minimum_spanning_tree
from .model import L, L_ETPC, SWRT, USRT, VARIANTS, ProblemInstance

FORMAT_VERSION = 1
GRID = 1000  # coordinates drawn from [0, GRID]^2
WEIGHT_RANGE = (1, 10)  # SWRT vertex weights
LENGTH_RANGE = (1, 1000)  # random_metric raw edge lengths, before the metric closure
PAIRS_PER_VERTEX = 6  # L_ETPC relevant pairs: min(6 n, n (n - 1) / 2)
ROAD_EDGES_PER_VERTEX = 1.75  # planar_road edge target: ceil(1.75 n)

EUCLIDEAN_COMPLETE = "euclidean_complete"
RANDOM_METRIC = "random_metric"
PLANAR_ROAD = "planar_road"
FAMILIES = (EUCLIDEAN_COMPLETE, RANDOM_METRIC, PLANAR_ROAD)


class InstanceFormatError(ValueError):
    """Malformed instance file; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    seed: int
    variant: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.family != RANDOM_METRIC and self.n > (GRID + 1) ** 2:
            raise ValueError(
                f"--n {self.n} exceeds the {(GRID + 1) ** 2} distinct grid points "
                f"that {self.family} places vertices on"
            )


def _rounded_dist(p: tuple[int, int], q: tuple[int, int]) -> int:
    d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    r = math.isqrt(d2)
    if d2 - r * r > r:  # nearer to r + 1
        r += 1
    return r


def _sample_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    points: list[tuple[int, int]] = []
    used = set()
    while len(points) < n:
        p = (rng.randrange(GRID + 1), rng.randrange(GRID + 1))
        if p not in used:
            used.add(p)
            points.append(p)
    return points


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Deterministic per-seed instance for the given family and variant."""
    rng = random.Random(spec.seed)
    if spec.family == EUCLIDEAN_COMPLETE:
        net = _euclidean_complete(rng, spec.n)
    elif spec.family == RANDOM_METRIC:
        net = _random_metric(rng, spec.n)
    else:
        net = _planar_road(rng, spec.n)
    return _attach_variant_data(rng, net, spec)


def _euclidean_complete(rng: random.Random, n: int) -> Network:
    points = _sample_points(rng, n)
    edges = [
        (i, j, _rounded_dist(points[i], points[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return Network(n, tuple(edges), depot=rng.randrange(n))


def _random_metric(rng: random.Random, n: int) -> Network:
    lo, hi = LENGTH_RANGE
    raw = [
        (i, j, rng.randint(lo, hi)) for i in range(n) for j in range(i + 1, n)
    ]
    dist = np.zeros((n, n), dtype=np.int64)
    for a, b, w in raw:
        dist[a, b] = dist[b, a] = w
    _floyd_warshall(dist)
    edges = [(a, b, int(dist[a, b])) for a, b, _ in raw]
    return Network(n, tuple(edges), depot=rng.randrange(n))


def _segments_cross(p1, p2, p3, p4) -> bool:
    """True if two distinct segments share any point other than a common
    endpoint.

    Two early exits are exact.  If p3 and p4 lie strictly on one side of the
    line p1p2, the segments cannot meet.  If p3p4 is not on that line and the
    segments share an endpoint, the two distinct lines meet only there.  Only
    the remaining pairs take the full orientation and collinear test."""
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if d3 * d4 > 0 or (d3 or d4) and (p3 in (p1, p2) or p4 in (p1, p2)):
        return False
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    # an endpoint of one segment inside the other, collinear with it
    for d, a, b, c in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        if d == 0 and _on_segment(a, c, b):
            return True
    return False


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, c, b) -> bool:
    """c in the closed bounding box of collinear a, b, and neither a nor b:
    a point of the segment ab other than its endpoints."""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        and c != a
        and c != b
    )


def _planar_road(rng: random.Random, n: int) -> Network:
    """Euclidean MST plus the shortest non-crossing augmenting edges."""
    points = _sample_points(rng, n)
    chosen = _planar_edges(points)
    target = math.ceil(ROAD_EDGES_PER_VERTEX * n)
    if len(chosen) < target:
        warnings.warn(
            f"planar road target of {target} edges unreachable without "
            f"crossings; produced {len(chosen)}"
        )
    edges = tuple((i, j, _rounded_dist(points[i], points[j])) for i, j in chosen)
    return Network(n, edges, depot=rng.randrange(n))


def _planar_edges(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Pairs ``(i, j)``, i < j, of a road network on distinct points: the
    Euclidean MST, then each pair whose segment shares no point other than a
    common endpoint with a chosen one, until ``ROAD_EDGES_PER_VERTEX * n``
    pairs (rounded up) are chosen.  Both passes read the pairs in ascending
    (d², i, j) order, d the Euclidean distance."""
    n = len(points)
    target = math.ceil(ROAD_EDGES_PER_VERTEX * n)
    xy = np.array(points, dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    # the key d² n² + i n + j is unique per pair, so the sorted keys are in
    # (d², i, j) order; d² <= 2 GRID² and n <= (GRID + 1)² keep it < 2**63
    keys = ((xy[i] - xy[j]) ** 2).sum(axis=1)
    keys *= n * n
    keys += i * n + j
    keys.sort()

    def blocks():
        """The pairs as ``(i, j, d²)`` lists, in key order, decoded only as
        far as a pass reads."""
        for start in range(0, len(keys), 4 * n):
            d2, ij = np.divmod(keys[start : start + 4 * n], n * n)
            a, b = np.divmod(ij, n)
            yield list(zip(a.tolist(), b.tolist(), d2.tolist()))

    uf = _UnionFind(n)
    chosen: list[tuple[int, int]] = []
    for block in blocks():
        chosen += [block[k][:2] for k in kruskal(block, uf, range(len(block)))]
        if uf.sets == 1:
            break
    in_net = set(chosen)
    # closed bounding boxes of the chosen segments, one column each, rows
    # x_lo, y_lo, x_hi, y_hi: segments that share a point have meeting boxes
    box = np.empty((4, target), dtype=np.int64)
    for k, (a, b) in enumerate(chosen):
        box[:, k] = _box(points[a], points[b])
    for i, j, _ in chain.from_iterable(blocks()):
        if len(chosen) >= target:
            break
        if (i, j) in in_net:
            continue
        p, q = points[i], points[j]
        x0, y0, x1, y1 = bounds = _box(p, q)
        lo_x, lo_y, hi_x, hi_y = box[:, : len(chosen)]
        near = np.flatnonzero((lo_x <= x1) & (lo_y <= y1) & (hi_x >= x0) & (hi_y >= y0))
        if any(
            _segments_cross(p, q, points[a], points[b])
            for a, b in map(chosen.__getitem__, near.tolist())
        ):
            continue
        box[:, len(chosen)] = bounds
        chosen.append((i, j))
        in_net.add((i, j))
    return chosen


def _box(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int, int, int]:
    """Closed bounding box of segment pq as (x_lo, y_lo, x_hi, y_hi)."""
    return min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1])


def _attach_variant_data(rng: random.Random, net: Network, spec: GeneratorSpec) -> ProblemInstance:
    if spec.variant == USRT:
        return ProblemInstance(net, USRT)
    if spec.variant == SWRT:
        lo, hi = WEIGHT_RANGE
        weights = tuple(rng.randint(lo, hi) for _ in range(net.n))
        return ProblemInstance(net, SWRT, weights=weights)
    horizon = minimum_spanning_tree(net).total_length
    if spec.variant == L:
        due = tuple(rng.randint(0, horizon) for _ in range(net.n))
        return ProblemInstance(net, L, vertex_due_dates=due)
    all_pairs = [(i, j) for i in range(net.n) for j in range(i + 1, net.n)]
    q = min(PAIRS_PER_VERTEX * net.n, len(all_pairs))
    pairs = sorted(rng.sample(all_pairs, q))
    due_dates = {p: rng.randint(0, horizon) for p in pairs}
    return ProblemInstance(net, L_ETPC, pair_due_dates=due_dates)


def instance_to_dict(inst: ProblemInstance, family: str | None = None) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "variant": inst.variant,
        "n": inst.net.n,
        "depot": inst.net.depot,
        "edges": [list(e) for e in inst.net.edges],
    }
    if inst.variant in (USRT, SWRT):
        doc["weights"] = list(inst.weights)
    elif inst.variant == L:
        doc["vertex_due_dates"] = list(inst.vertex_due_dates)
    else:
        doc["pair_due_dates"] = [
            [u, v, d] for (u, v), d in sorted(inst.pair_due_dates.items())
        ]
    if family is not None:
        doc["family"] = family
    return doc


def write_instance(inst: ProblemInstance, path, family: str | None = None) -> None:
    text = json.dumps(instance_to_dict(inst, family), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise InstanceFormatError(key, "missing required field")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise InstanceFormatError(key, f"expected {kind.__name__}")
    return value


def instance_from_dict(doc: dict) -> ProblemInstance:
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise InstanceFormatError("format_version", f"unsupported version {version}")
    variant = _require(doc, "variant", str)
    if variant not in VARIANTS:
        raise InstanceFormatError("variant", f"unknown variant {variant!r}")
    n = _require(doc, "n", int)
    depot = _require(doc, "depot", int)
    edges_doc = _require(doc, "edges", list)
    edges = []
    for k, item in enumerate(edges_doc):
        if not (isinstance(item, list) and len(item) == 3) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in item
        ):
            raise InstanceFormatError(f"edges[{k}]", "expected [a, b, length]")
        edges.append(tuple(item))
    try:
        net = Network(n, tuple(edges), depot=depot)
    except ValueError as exc:
        raise InstanceFormatError("edges", str(exc)) from exc
    # every data field present goes to ProblemInstance, which rejects the
    # ones the variant does not take; the variant's own field is required
    own = {SWRT: "weights", L: "vertex_due_dates", L_ETPC: "pair_due_dates"}.get(variant)
    kwargs = {}
    for name in ("weights", "vertex_due_dates"):
        if name in doc or name == own:
            values = _require(doc, name, list)
            _check_int_list(name, values, n)
            kwargs[name] = tuple(values)
    if "pair_due_dates" in doc or own == "pair_due_dates":
        raw = _require(doc, "pair_due_dates", list)
        pairs = {}
        for k, item in enumerate(raw):
            if not (isinstance(item, list) and len(item) == 3) or any(
                not isinstance(x, int) or isinstance(x, bool) for x in item
            ):
                raise InstanceFormatError(f"pair_due_dates[{k}]", "expected [u, v, d]")
            u, v, d = item
            if (u, v) in pairs or (v, u) in pairs:
                raise InstanceFormatError(f"pair_due_dates[{k}]", f"duplicate pair [{u}, {v}]")
            pairs[(u, v)] = d
        kwargs["pair_due_dates"] = pairs
    try:
        return ProblemInstance(net, variant, **kwargs)
    except ValueError as exc:
        raise InstanceFormatError(variant, str(exc)) from exc


def _check_int_list(name: str, values: list, n: int) -> None:
    if len(values) != n:
        raise InstanceFormatError(name, f"expected {n} entries, got {len(values)}")
    for k, x in enumerate(values):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InstanceFormatError(f"{name}[{k}]", "expected an integer")


def read_instance(path) -> tuple[ProblemInstance, str | None]:
    """Parse an instance file once: the instance and its optional ``family``
    annotation as stored by the generator (None if absent)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError("<root>", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceFormatError("<root>", "JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("<root>", "expected a JSON object")
    family = _require(doc, "family", str) if "family" in doc else None
    return instance_from_dict(doc), family
