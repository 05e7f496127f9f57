"""Independent checks of ``netcon solve`` run records.

A record passes when its stdout is one JSON object naming the task it was run
for, its tree rebuilds as a spanning tree, its order is a permutation of the
tree's edges, an IT order keeps every prefix connected to the depot, and both
the library's ``evaluate`` and the benchmark's own evaluator reproduce the
reported objective.  The instance checked against is the one generated in
memory at set-up, not the file the solver read.

``self_test`` corrupts genuine records and shows that each corruption is
counted as a failure; ``python3 perfbench/run.py --self-test`` runs it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil

from netcon import cli
from netcon.graph import GraphError, SpanningTree
from netcon.instances import GeneratorSpec, generate, write_instance
from netcon.model import IT_VARIANTS, L, EdgeSchedule, check_it_feasible, evaluate
from workloads import WORK_DIR, Task

RECORD_KEYS = {"algorithm", "instance", "n", "objective", "order", "params", "seed", "tree", "variant"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def own_objective(inst, order) -> int:
    """Objective of an edge order, computed without the library's evaluator.

    IT variants: a vertex recovers when the edge reaching it completes.
    L_ETPC: a pair connects when the last edge of its tree path completes.
    """
    net = inst.net
    if inst.variant in IT_VARIANTS:
        t = 0
        reached = {net.depot: 0}
        for eid in order:
            a, b, w = net.edges[eid]
            t += w
            if (a in reached) == (b in reached):
                raise ValueError(f"edge {eid} does not extend the built subtree")
            reached[b if a in reached else a] = t
        del reached[net.depot]
        if inst.variant == L:
            return max(at - inst.vertex_due_dates[v] for v, at in reached.items())
        return sum(inst.weights[v] * at for v, at in reached.items())
    done, t = {}, 0
    for eid in order:
        t += net.edges[eid][2]
        done[eid] = t
    adj = {v: [] for v in range(net.n)}
    for eid in order:
        a, b, _ = net.edges[eid]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    worst = None
    for (u, v), due in inst.pair_due_dates.items():
        # depth-first search from u carrying the latest completion on the path
        stack, seen, connect = [(u, 0)], {u}, None
        while stack:
            x, latest = stack.pop()
            if x == v:
                connect = latest
                break
            for y, eid in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append((y, max(latest, done[eid])))
        if connect is None:
            raise ValueError(f"pair {(u, v)} is never connected")
        worst = connect - due if worst is None else max(worst, connect - due)
    return worst


def check(task, inst, stdout: str) -> list[str]:
    """Problems found in one task's stdout; empty when the record is valid."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"expected one stdout line, got {len(lines)}"]
    try:
        rec = json.loads(lines[0])
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
        return ["record keys differ from the solve record"]
    net = inst.net
    problems = [
        f"{key} is {rec[key]!r}, expected {want!r}"
        for key, want in (
            ("algorithm", task.algo),
            ("instance", task.path),
            ("n", net.n),
            ("seed", task.seed),
            ("variant", inst.variant),
        )
        if rec[key] != want
    ]
    tree_ids, order, objective = rec["tree"], rec["order"], rec["objective"]
    if not _is_int(objective):
        return problems + ["objective is not an integer"]
    ids_ok = all(isinstance(x, list) and all(_is_int(e) and 0 <= e < net.m for e in x) for x in (tree_ids, order))
    if not ids_ok:
        return problems + ["tree and order must list edge ids of the network"]
    try:
        tree = SpanningTree.from_edges(net, tree_ids)
    except GraphError as exc:
        return problems + [f"tree does not rebuild: {exc}"]
    if sorted(order) != list(tree.edge_ids):
        return problems + ["order is not a permutation of the tree's edges"]
    sched = EdgeSchedule(tree, tuple(order))
    if inst.variant in IT_VARIANTS and not check_it_feasible(net, sched):
        return problems + ["IT order leaves a prefix disconnected from the depot"]
    lib, _ = evaluate(inst, sched)
    if lib != objective:
        problems.append(f"evaluate gives {lib}, record says {objective}")
    own = own_objective(inst, order)
    if own != objective:
        problems.append(f"own evaluator gives {own}, record says {objective}")
    return problems


def _corruptions(rec: dict, inst) -> dict[str, str]:
    """Deliberately broken variants of a genuine record, one fault each."""
    net = inst.net
    out = {}

    def emit(name, **changes):
        out[name] = json.dumps({**rec, **changes}, sort_keys=True) + "\n"

    emit("objective off by one", objective=rec["objective"] + 1)
    emit("tree missing an edge", tree=rec["tree"][1:])
    emit("order missing an edge", order=rec["order"][:-1])
    emit("order repeats an edge", order=rec["order"][:-1] + rec["order"][:1])
    emit("edge id out of range", tree=rec["tree"][:-1] + [net.m])
    emit("wrong algorithm", algorithm="oracle")
    if inst.variant in IT_VARIANTS:
        # a tree of more than one level has an edge away from the depot
        first = next(e for e in rec["order"] if net.depot not in net.edges[e][:2])
        emit("IT order starts away from the depot", order=[first] + [e for e in rec["order"] if e != first])
    out["two records"] = json.dumps(rec) + "\n" + json.dumps(rec) + "\n"
    out["not JSON"] = "objective=1\n"
    return out


def self_test() -> dict[str, bool]:
    """Case name -> whether the checker judged it as it should."""
    results = {}
    tmp = WORK_DIR / "self-test"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for k, (family, variant, algo) in enumerate(
            (("euclidean_complete", "SWRT", "mst-loc-net"), ("random_metric", "L_ETPC", "mst-loc-sch"))
        ):
            spec = GeneratorSpec(family, 9, 100 + k, variant)
            inst = generate(spec)
            path = (tmp / f"self{k}.json").as_posix()
            write_instance(inst, path, family=family)
            task = Task(f"self{k}", path, spec, algo, 0)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(task.argv())
            genuine = out.getvalue()
            results[f"{variant}: genuine record passes"] = code == 0 and not check(task, inst, genuine)
            rec = json.loads(genuine)
            for name, text in _corruptions(rec, inst).items():
                results[f"{variant}: {name} is caught"] = bool(check(task, inst, text))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return results

