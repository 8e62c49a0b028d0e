"""Benchmark runner: one seeded workload through ffzeta, in one process and
one thread, as a closed loop with one client.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (ffzeta is imported from ./src).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the same task list under layer spans and prints the per-layer metrics,
taking the untraced reference from a child run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each run also writes its full record to .bench_out/, unless given
``--record 0`` (as the traced run's untraced reference child is).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import FIELD_PM, WORKLOADS  # noqa: E402

# end-to-end metric name -> unit, in the order of the report
END_TO_END = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SETUP_REPEATS = 5
RUN_CAP_S = 150     # a run stops starting tasks after this many seconds
TRACED_CAP_S = 165  # the same for the traced pass, after its reference run

# Set-up as a user pays it, in a fresh interpreter: import the package,
# build the workloads' fields, create a temporary cache directory.
SETUP_SNIPPET = """
import os, sys, tempfile, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ffzeta, ffzeta.cli
fields = [ffzeta.FiniteField(p, m) for p, m in %r]
tmp = tempfile.mkdtemp(dir=sys.argv[2])
t1 = time.perf_counter()
os.rmdir(tmp)
print(t1 - t0)
""" % (sorted(set(FIELD_PM.values())),)


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                               str(TMP_DIR)], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_package():
    sys.path.insert(0, str(SRC))
    import ffzeta
    import ffzeta.cli
    if Path(ffzeta.__file__).resolve().parent != SRC / "ffzeta":
        raise ImportError(f"ffzeta imported from {ffzeta.__file__}, not ./src")
    return ffzeta


def git_commit() -> str:
    """HEAD of the checkout; git may not look above the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def run_tasks(ctx, tasks, deadline, tracer=None, mangle=None):
    """Execute the task list in order; check each output after its timing.

    Returns (latencies in seconds, failures).  A failure is a dict with the
    task id, reason, and whether the output itself is wrong (as opposed to
    an oracle disagreeing with an output that a third route confirms).
    ``mangle`` corrupts outcomes before checking; the self-tests use it.
    """
    latencies, failures = [], []
    for task in tasks:
        if time.perf_counter() > deadline:
            failures.append({"task": task["id"], "kind": task["kind"],
                             "reason": "not run: time cap reached",
                             "output_wrong": False})
            continue
        if tracer is not None:
            tracer.task = task["id"]
            tracer.active = True
        error = None
        try:
            dt, outcome = workloads.execute(ctx, task)
        except Exception as exc:  # a crashing request is a failed task
            error = exc
        finally:
            if tracer is not None:
                tracer.active = False
        if error is not None:
            failures.append({"task": task["id"], "kind": task["kind"],
                             "reason": f"raised {type(error).__name__}: {error}",
                             "output_wrong": True})
            continue
        latencies.append(dt)
        if mangle is not None:
            outcome = mangle(task, outcome)
        verdict = workloads.check(ctx, task, outcome)
        if verdict is not None:
            failures.append({"task": task["id"], "kind": task["kind"],
                             "argv": task.get("argv"),
                             "reason": verdict.reason,
                             "output_wrong": verdict.output_wrong})
        del outcome  # not held while the next task runs
    return latencies, failures


def end_to_end(setup_times, latencies) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = latencies if len(latencies) >= 2 else [float("nan")] * 2
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"setup_s": statistics.median(setup_times),
            "wall_s": sum(latencies),
            "task_p50_ms": 1000 * statistics.median(lat),
            "task_p90_ms": 1000 * deciles[8],
            "peak_rss_mb": rss_kb / 1024}


def reference_wall_s(args) -> float | None:
    """wall_s of an untraced run of the same task list, in a child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--record", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_CAP_S + 20, cwd=ROOT)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        return last["metrics"]["wall_s"]["value"]
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError):
        return None


def environment(args, tasks) -> dict:
    import numpy
    kinds: dict = {}
    for t in tasks:
        kinds[t["kind"]] = kinds.get(t["kind"], 0) + 1
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "tasks": len(tasks), "tasks_by_kind": kinds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "machine": platform.machine()}


def report(env, metrics, latencies, failures, setup_times, attempted):
    print(f"perfbench {env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={env['trace']} tasks={env['tasks']} "
          f"{json.dumps(env['tasks_by_kind'], sort_keys=True)}")
    print(f"  commit={env['commit']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    print("  closed loop, one client, one thread: no queue, so no layer has "
          "a waiting time (none is reported)")
    n = len(latencies)
    samples = {"setup_s": f"median of {len(setup_times)} set-ups",
               "wall_s": f"sum over {n} timed tasks",
               "task_p50_ms": f"{n} tasks", "task_p90_ms":
               f"{n} tasks, {n - int(0.9 * n)} beyond p90",
               "peak_rss_mb": "run process"}
    for name, m in metrics.items():
        note = m.get("absent") or samples.get(name, "")
        shown = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"  {name:36s} {shown:>14s} {m['unit']:6s} {note}")
    failed = len(failures)
    print(f"  {'fail_ratio':36s} {failed / max(attempted, 1):>14.6g} "
          f"{'ratio':6s} {failed} of {attempted} tasks failed")
    for f in failures[:10]:
        print(f"  FAILED task {f['task']} ({f['kind']}): {f['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, choices=(0, 1), default=1,
                    help="write the run record to .bench_out/ (default 1)")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "ffzeta" / "__init__.py").is_file():
        print(f"error: no ffzeta sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    tasks = workloads.make_tasks(args.workload, args.seed, args.seconds)
    setup_times = measure_setup()
    ffz = import_package()
    cache_dir = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        ctx = workloads.Context(ffz, cache_dir)
        tracer = None
        if args.trace:
            from spans import Tracer, per_layer_metrics
            ref_wall = reference_wall_s(args)
            tracer = Tracer()
            tracer.install()
        cap = TRACED_CAP_S if args.trace else RUN_CAP_S
        latencies, failures = run_tasks(ctx, tasks, t_start + cap, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    e2e = end_to_end(setup_times, latencies)
    if args.trace:
        overhead = e2e["wall_s"] / ref_wall - 1 if ref_wall else None
        metrics = {}
        for name, (value, unit, reason) in per_layer_metrics(
                tracer, ctx.bytes_out, overhead).items():
            metrics[name] = {"value": value, "unit": unit}
            if reason:
                metrics[name]["absent"] = reason
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    env = environment(args, tasks)
    attempted = len(tasks)
    report(env, metrics, latencies, failures, setup_times, attempted)
    correct = not any(f["output_wrong"] for f in failures)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics,
              "end_to_end": e2e, "failures": failures,
              "setup_samples_s": setup_times, "latencies_s": latencies}
    if args.record:
        (OUT_DIR / f"{stamp}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            tracer.write_spans(OUT_DIR / f"{stamp}.spans.tsv")
    last = {"correct": correct, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
