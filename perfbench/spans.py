"""Span tracing installed from outside the library.

Each traced function is replaced by a wrapper at every binding that holds it:
the defining module, every module that imported it by name, and the package
namespace.  A wrapper records calls, inclusive time and self time (inclusive
time minus the time of the spans nested in it).  Generator functions are timed
as the sum of their ``next()`` calls.  Spans are aggregated on the fly; nothing
is recorded while no root span is open.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import netcon.cli
import netcon.graph
import netcon.instances
import netcon.local_search
import netcon.metaheuristics
import netcon.model
import netcon.neighborhoods
import netcon.solution
import netcon.tree_solvers

ROOT_SPAN = "bench.task"

# (module, attribute, span name); the span name's prefix is the layer
FUNCTIONS = (
    (netcon.graph, "all_pairs_shortest_paths", "graph.apsp"),
    (netcon.model, "evaluate", "model.evaluate"),
    (netcon.model, "vertex_recovery_sequence", "model.sequence"),
    (netcon.model, "pairs_connection_sequence", "model.sequence"),
    (netcon.tree_solvers, "optimal_schedule", "tree_solvers.optimal_schedule"),
    (netcon.tree_solvers, "es_swrt", "tree_solvers.es_swrt"),
    (netcon.tree_solvers, "es_lmax", "tree_solvers.es_lmax"),
    (netcon.tree_solvers, "es_letpc", "tree_solvers.es_letpc"),
    (netcon.solution, "solve_tree", "solution.solve_tree"),
    (netcon.neighborhoods, "neighbors", "neighborhoods.neighbors"),
    (netcon.neighborhoods, "a_it", "neighborhoods.a_it"),
    (netcon.neighborhoods, "a_et", "neighborhoods.a_et"),
    (netcon.local_search, "impr", "local_search.impr"),
    (netcon.local_search, "loc", "local_search.loc"),
    (netcon.local_search, "mst_loc", "local_search.mst_loc"),
    (netcon.local_search, "mst_heuristic", "local_search.mst_heuristic"),
    (netcon.metaheuristics, "run", "metaheuristics.run"),
    (netcon.metaheuristics, "iterated_local_search", "metaheuristics.ils"),
    (netcon.metaheuristics, "tabu_search", "metaheuristics.ts"),
    (netcon.metaheuristics, "shake", "metaheuristics.shake"),
    (netcon.instances, "generate", "instances.generate"),
    (netcon.instances, "read_instance", "instances.read"),
    (netcon.instances, "write_instance", "instances.write"),
    (netcon.cli, "main", "cli.main"),
)

# (class, attribute, span name)
METHODS = (
    (netcon.graph.SpanningTree, "from_edges", "graph.tree_build"),
    (netcon.graph.ContractedGraph, "__init__", "graph.contract"),
    (netcon.graph.ContractedGraph, "contract_edge", "graph.contract"),
)


class Tracer:
    """Aggregated span statistics; nesting is kept on an explicit stack."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.bindings = 0  # bindings replaced by the latest install
        self.reset()

    def reset(self):
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.counts: Counter = Counter()  # (event, parent name) -> count
        self.self_total_ns = 0

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str):
        self.edges[(self.parent(), name)] += 1
        self.stack.append([name, perf_counter_ns(), 0])

    def exit(self) -> int:
        name, start, child = self.stack.pop()
        dur = perf_counter_ns() - start
        self.calls[name] += 1
        self.incl_ns[name] += dur
        self.self_ns[name] += dur - child
        self.self_total_ns += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _generator_span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        if not tracer.stack:
            yield from it
            return
        tracer.counts[("start", tracer.parent())] += 1
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.counts[("yield", tracer.parent())] += 1
            yield item

    return wrapper


def _wrap(tracer: Tracer, name: str, fn):
    make = _generator_span if inspect.isgeneratorfunction(fn) else _span
    return make(tracer, name, fn)


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of the traced callables; restore them on exit."""
    modules = [
        m for key, m in list(sys.modules.items()) if key == "netcon" or key.startswith("netcon.")
    ]
    patches = []  # (owner, attribute, original value)
    try:
        for module, attr, name in FUNCTIONS:
            fn = getattr(module, attr)
            wrapper = _wrap(tracer, name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        patches.append((m, key, value))
                        setattr(m, key, wrapper)
        for cls, attr, name in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                new = _wrap(tracer, name, raw)
            patches.append((cls, attr, raw))
            setattr(cls, attr, new)
        tracer.bindings = len(patches)
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


ES_SPANS = ("tree_solvers.es_swrt", "tree_solvers.es_lmax", "tree_solvers.es_letpc")
REBUILD_SPANS = ("neighborhoods.a_it", "neighborhoods.a_et")
NEIGHBORS = "neighborhoods.neighbors"


def layer_metrics(t: Tracer, oracle_hits: int, oracle_misses: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced grid pass, as name -> (value, unit)."""

    def ms(ns: int) -> float:
        return ns / 1e6

    def layer_self(layer: str) -> int:
        return sum(ns for name, ns in t.self_ns.items() if name.startswith(layer + "."))

    es_calls = sum(t.calls[n] for n in ES_SPANS)
    es_self = sum(t.self_ns[n] for n in ES_SPANS)
    yielded = sum(c for (event, _), c in t.counts.items() if event == "yield")
    loc_yielded = t.counts[("yield", "local_search.loc")]
    loc_improvements = t.edges[("local_search.loc", "local_search.impr")]
    oracle_calls = oracle_hits + oracle_misses
    return {
        "tree_solvers.es_swrt.self_ms": (ms(t.self_ns["tree_solvers.es_swrt"]), "ms"),
        "tree_solvers.es_lmax.self_ms": (ms(t.self_ns["tree_solvers.es_lmax"]), "ms"),
        "tree_solvers.es_letpc.self_ms": (ms(t.self_ns["tree_solvers.es_letpc"]), "ms"),
        "tree_solvers.es.calls": (es_calls, "count"),
        "tree_solvers.es.us_per_call": (es_self / 1e3 / es_calls if es_calls else 0.0, "us"),
        "model.evaluate.self_ms": (ms(t.self_ns["model.evaluate"]), "ms"),
        "model.evaluate.calls": (t.calls["model.evaluate"], "count"),
        "model.sequence.self_ms": (ms(t.self_ns["model.sequence"]), "ms"),
        "graph.tree_build.self_ms": (ms(t.self_ns["graph.tree_build"]), "ms"),
        "graph.tree_build.calls": (t.calls["graph.tree_build"], "count"),
        "graph.contract.self_ms": (ms(t.self_ns["graph.contract"]), "ms"),
        "graph.contract.calls": (t.calls["graph.contract"], "count"),
        "graph.apsp.self_ms": (ms(t.self_ns["graph.apsp"]), "ms"),
        "graph.apsp.calls": (t.calls["graph.apsp"], "count"),
        "graph.oracle_cache.hit_ratio": (
            oracle_hits / oracle_calls if oracle_calls else 0.0,
            "ratio",
        ),
        "neighborhoods.a_it.self_ms": (ms(t.self_ns["neighborhoods.a_it"]), "ms"),
        "neighborhoods.a_it.calls": (t.calls["neighborhoods.a_it"], "count"),
        "neighborhoods.a_et.self_ms": (ms(t.self_ns["neighborhoods.a_et"]), "ms"),
        "neighborhoods.a_et.calls": (t.calls["neighborhoods.a_et"], "count"),
        "neighborhoods.neighbors.yielded": (yielded, "count"),
        "neighborhoods.neighbors_per_s": (
            yielded / (t.incl_ns[NEIGHBORS] / 1e9) if t.incl_ns[NEIGHBORS] else 0.0,
            "1/s",
        ),
        "neighborhoods.self_ms": (ms(layer_self("neighborhoods")), "ms"),
        "solution.solve_tree.calls": (t.calls["solution.solve_tree"], "count"),
        "local_search.impr.calls": (t.calls["local_search.impr"], "count"),
        "local_search.impr.rounds": (
            sum(t.edges[("local_search.impr", n)] for n in REBUILD_SPANS),
            "count",
        ),
        "local_search.loc.improvements": (loc_improvements, "count"),
        "local_search.loc.accept_ratio": (
            loc_improvements / loc_yielded if loc_yielded else 0.0,
            "ratio",
        ),
        "metaheuristics.iterations": (
            t.edges[("metaheuristics.ils", "metaheuristics.shake")]
            + t.counts[("start", "metaheuristics.ts")],
            "count",
        ),
        "metaheuristics.shake.self_ms": (ms(t.self_ns["metaheuristics.shake"]), "ms"),
        "instances.read.ms": (ms(t.incl_ns["instances.read"]), "ms"),
        "cli.self_ms": (ms(t.self_ns["cli.main"]), "ms"),
    }
