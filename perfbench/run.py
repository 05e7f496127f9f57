"""Fixed-work benchmark of ``netcon solve`` grids, run in one process.

    python3 perfbench/run.py --workload net-dense --seed 0 --seconds 30 --trace 0

Imports netcon from the ``src`` directory of the checkout this file sits in.
Set-up generates and writes every task's instance file (repeated, median
reported).  Each round then runs the workload's whole task list serially, one
in-process ``netcon.cli.main(["solve", ...])`` call per task with the oracle
cache cleared first, and verifies every record afterwards.  At least
``MIN_ROUNDS`` rounds run, and more while the next one is expected to end
within ``--seconds``; times are medians over rounds.

Times are reported at a reference speed.  A shared host runs Python faster
or slower by tens of percent for seconds to minutes at a time.  So a fixed
job that uses no netcon code, ``reference_work()``, is timed just before every
task and every instance a set-up makes, and each measured time is divided by
how much slower than ``REFERENCE_S`` that job ran at the moment.  The report lines give
the raw wall times and the slowdown too.

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
untraced and traced rounds alternate and the result holds the per-layer
metrics of the traced rounds plus the tracing overhead.  A report goes to
stdout first; the last stdout line is the JSON result.

Other modes: ``--self-test`` shows that corrupted records are caught;
``--write-reference`` records the default seed's stdout digests.
"""
from __future__ import annotations

import os

# single-threaded numeric libraries, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_digests.json"
DEFAULT_SEED = 0
TAIL_BEYOND = 10  # tasks required above the reported tail percentile
OVERSHOOT = 1.1  # another round starts only if expected to end by seconds * OVERSHOOT
MIN_ROUNDS = 3  # times are medians over at least this many rounds
# reference_work() time that defines the reference speed: about its fastest
# on the 2-CPU x86_64 container the figures in NOTES.md come from
REFERENCE_S = 0.003
SPEED_WINDOW = 8  # a task's slowdown: mean over the tasks this close to it


def load_netcon():
    """Import netcon from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "netcon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no netcon sources under {src}")
    sys.path.insert(0, str(src))
    import netcon

    if Path(netcon.__file__).resolve().parent != (src / "netcon").resolve():
        sys.exit(f"perfbench: imported netcon from {netcon.__file__}, not {src}")


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout; src_sha256 still identifies the code


def provenance(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "netcon").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def reference_work() -> int:
    """A fixed interpreter-bound job that uses no netcon code.  It runs next to
    every task, so its time tracks how fast the host runs Python just then."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) % 251
        counts[key] = counts.get(key, 0) + i
        acc += len(str(i)) * (i & 7)
    ordered = sorted(counts.values(), reverse=True)
    return acc + sum(ordered[::3])


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Scale each time by REFERENCE_S over the mean reference_work() time
    measured next to it (refs[k] ran just before seconds[k])."""
    out = []
    for k, sec in enumerate(seconds):
        near = refs[max(0, k - SPEED_WINDOW) : k + SPEED_WINDOW + 1]
        out.append(sec * REFERENCE_S * len(near) / sum(near))
    return out


def scaled_times(r: dict) -> list[float]:
    """One round's task times at the reference speed."""
    return at_reference_speed([run.seconds for run in r["runs"]], [run.reference_s for run in r["runs"]])


def timed_setup(workloads, tasks, name) -> tuple[dict, float, float]:
    """Instances, and set-up time as wall seconds and at the reference speed.
    A reference job runs before each instance is made, as before each task."""
    refs = [time_reference()]
    start = time.perf_counter()
    workloads.prepare(name)
    seconds = [time.perf_counter() - start]
    instances = {}
    for task in tasks:
        refs.append(time_reference())
        start = time.perf_counter()
        instances[task.path] = workloads.make_instance(task)
        seconds.append(time.perf_counter() - start)
    return instances, sum(seconds), sum(at_reference_speed(seconds, refs))


class TaskRun(NamedTuple):
    seconds: float
    reference_s: float  # reference_work() run just before the task
    status: object  # cli exit code, or the exception a crash raised
    stdout: str
    cache: tuple  # cached_oracle.cache_info() after the task
    consistent: bool  # traced: span self times add up to the task span


def run_task(task, tracer=None) -> TaskRun:
    """One in-process ``netcon solve``, timed from the call to its return."""
    from netcon import cli
    from netcon.graph import cached_oracle
    from spans import ROOT_SPAN

    reference_s = time_reference()
    cached_oracle.cache_clear()  # every task pays APSP, as a fresh process does
    out = io.StringIO()
    if tracer is not None:
        before = tracer.self_total_ns
        tracer.enter(ROOT_SPAN)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(task.argv())
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crashing task is counted as failed, not fatal
        status = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    consistent = True
    if tracer is not None:
        span = tracer.exit()
        # self times of every span in the task must add up to the task span
        consistent = not tracer.stack and tracer.self_total_ns - before == span
    return TaskRun(seconds, reference_s, status, out.getvalue(), cached_oracle.cache_info(), consistent)


def run_round(tasks, tracer=None) -> dict:
    import spans

    gc.collect()
    runs = []
    hits = misses = 0
    with spans.installed(tracer) if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        for task in tasks:
            run = run_task(task, tracer)
            hits += run.cache.hits
            misses += run.cache.misses
            runs.append(run)
        grid = time.perf_counter() - start
    out = {"traced": tracer is not None, "grid_s": grid, "runs": runs}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, hits, misses)
        out["bindings"] = tracer.bindings
    return out


def traced_setup(workloads, tasks, name):
    import spans

    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.enter("bench.setup")
        instances = workloads.setup(tasks, name)
        tracer.exit()
    return instances, tracer.incl_ns["instances.generate"] / 1e6


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, tasks beyond it) at the highest percentile that
    leaves at least TAIL_BEYOND tasks above it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    load_netcon()
    os.chdir(ROOT)  # instance paths in solve records are relative to the root
    import verify
    import workloads

    selftest = verify.self_test()
    if args.self_test:
        for case, ok in selftest.items():
            print(f"{'ok  ' if ok else 'FAIL'} {case}")
        return 0 if all(selftest.values()) else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"reference digests are recorded for --seed {DEFAULT_SEED} only")
    wl = workloads.WORKLOADS[args.workload]
    try:
        return measure(args, wl, selftest)
    finally:
        shutil.rmtree(workloads.WORK_DIR / wl.name, ignore_errors=True)
        with contextlib.suppress(OSError):
            workloads.WORK_DIR.rmdir()


def measure(args, wl, selftest: dict) -> int:
    import spans
    import verify
    import workloads

    tasks = wl.tasks(args.seed)
    prov = provenance(args.seed)
    if args.trace:
        instances, generate_ms = traced_setup(workloads, tasks, wl.name)
    else:
        setups = []  # (wall seconds, seconds at reference speed)
        for _ in range(wl.setup_repeats):
            instances, seconds, scaled_s = timed_setup(workloads, tasks, wl.name)
            setups.append((seconds, scaled_s))

    rounds = []
    start = time.perf_counter()
    while True:
        trace_round = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(tasks, spans.Tracer() if trace_round else None))
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= MIN_ROUNDS
        if enough and elapsed + rounds[-1]["grid_s"] > args.seconds * OVERSHOOT:
            break

    reference = {}
    if args.seed == DEFAULT_SEED and REFERENCE.is_file() and not args.write_reference:
        reference = json.loads(REFERENCE.read_text()).get(wl.name, {})
    first = {}
    verified = {}  # (task id, stdout digest) -> problems found; rounds repeat outputs
    attempted = failed = changed = trace_mismatch = inconsistent = 0
    problems = []
    for r in rounds:
        for task, run in zip(tasks, r["runs"]):
            attempted += 1
            digest = hashlib.sha256(run.stdout.encode()).hexdigest()
            if run.status == 0:
                key = (task.tid, digest)
                if key not in verified:
                    verified[key] = verify.check(task, instances[task.path], run.stdout)
                found = verified[key]
            else:
                found = [f"exit status {run.status!r}"]
            if found:
                failed += 1
                problems.append(f"{task.tid}: {'; '.join(found)}")
            want = first.setdefault(task.tid, digest)
            if digest != want or digest != reference.get(task.tid, digest):
                changed += 1
            if r["traced"] and digest != want:
                trace_mismatch += 1
            inconsistent += not run.consistent

    def scaled(traced: bool) -> list[list[float]]:
        return [scaled_times(r) for r in rounds if r["traced"] == traced]

    untraced = scaled(False)
    per_task = [statistics.median(times) for times in zip(*untraced)]
    tail_s, tail_pct, beyond = tail(per_task)
    grid_s = statistics.median(sum(times) for times in untraced)
    wall = [[run.seconds for run in r["runs"]] for r in rounds if not r["traced"]]
    slowdown = statistics.median(
        run.reference_s / REFERENCE_S for r in rounds if not r["traced"] for run in r["runs"]
    )
    e2e = {
        "grid_s": (grid_s, "s"),
        "solve_s.p50": (statistics.median(per_task), "s"),
        "solve_s.tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "changed_ratio": (changed / attempted, "ratio"),
    }
    if not args.trace:
        e2e = {"setup_s": (statistics.median(scaled_s for _, scaled_s in setups), "s"), **e2e}
    correct = failed == 0 and all(selftest.values())

    print(f"# workload {wl.name}: {wl.why}")
    print(f"# {len(tasks)} tasks x {len(rounds)} rounds; solve_s.tail is p{tail_pct:.1f} with {beyond} tasks beyond it")
    for name, (value, unit) in e2e.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    raw = {
        "grid_s": statistics.median(sum(times) for times in wall),
        "solve_s.p50": statistics.median(statistics.median(t) for t in zip(*wall)),
        "slowdown": slowdown,  # median reference_work() time / REFERENCE_S
    }
    if not args.trace:
        raw["setup_s"] = statistics.median(sec for sec, _ in setups)
    print("# unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for line in problems[:20]:
        print(f"# FAILED {line}")
    report = {
        "workload": wl.name,
        "provenance": prov,
        "tasks": len(tasks),
        "rounds": len(rounds),
        "tail": {"percentile": tail_pct, "tasks_beyond": beyond, "tasks": len(tasks)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "unscaled": raw,
        "reference_s": REFERENCE_S,
    }
    metrics = {k: v for k, v in e2e.items() if k not in ("fail_ratio", "changed_ratio")}

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        names = traced[0]["layers"]
        layers = {k: (statistics.median(r["layers"][k][0] for r in traced), names[k][1]) for k in names}
        layers["instances.generate.ms"] = (generate_ms, "ms")
        overhead = statistics.median(sum(times) for times in scaled(True)) / grid_s
        layers["trace.overhead"] = (overhead, "ratio")
        correct = correct and trace_mismatch == 0 and inconsistent == 0
        print(f"# trace: {traced[0]['bindings']} bindings wrapped; overhead {overhead:.4f}x untraced grid_s")
        print(f"# trace: stdout digests differing from the untraced run: {trace_mismatch}")
        print(f"# trace: tasks whose span self times do not add up: {inconsistent}")
        for name, (value, unit) in layers.items():
            print(f"{wl.name} {name} {value:.6g} {unit}")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["trace_checks"] = {"digest_mismatches": trace_mismatch, "inconsistent_tasks": inconsistent}
        metrics = layers

    if args.write_reference:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        refs[wl.name] = first
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"# wrote {len(first)} reference digests for {wl.name}")

    print("# report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
