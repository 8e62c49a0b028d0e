"""Compare two result sets of perfbench runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records that perfbench/run.py writes to
.bench_out/ (one JSON file per run).  One row is printed per (metric,
workload) with each side's median and quartiles and a verdict:

* improved   - at least ten seed-matched pairs, the change wins at least
               nine tenths of them (ties count for neither side), the
               medians differ by more than the parent's quartile spread,
               and the change fails no larger share of its tasks on that
               workload than the parent;
* unresolved - the change would be improved but fails a larger share of
               its tasks; or the quartile spread of either side, as a
               share of its median, is wider than the metric's bound, and
               not every change run beats every parent run;
* worse      - the change's median is worse than the parent's by more
               than the bound fixed in BENCHMARK.json;
* unchanged  - otherwise.

Failures are compared as a count: more failed tasks per attempted task
on the change is worse.  Two records of one (workload, trace, seed) on
one side are an error.  Per-layer metrics (traced runs) have no bound;
their medians are listed for reading only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    runs, seen = [], {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except ValueError:
            continue
        if "environment" in rec and "metrics" in rec:
            env = rec["environment"]
            key = (env["workload"], env["trace"], env["seed"])
            if key in seen:
                raise SystemExit(f"{path} and {seen[key]} are both runs of "
                                 f"workload, trace, seed = {key}")
            seen[key] = path
            runs.append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent: dict, change: dict, bound: float, lower_better: bool,
            fails_more: bool) -> tuple[str, str]:
    """(verdict, wins/pairs) for {seed: value} of each side; fails_more
    says the change fails a larger share of its tasks than the parent."""
    sign = 1 if lower_better else -1
    pv, cv = list(parent.values()), list(change.values())
    pmed, pq1, pq3 = summary(pv)
    cmed, cq1, cq3 = summary(cv)
    pairs = [s for s in parent if s in change]
    wins = sum(1 for s in pairs if sign * (change[s] - parent[s]) < 0)
    tally = f"{wins}/{len(pairs)}"
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (pmed - cmed) > pq3 - pq1):
        return ("unresolved" if fails_more else "improved"), tally
    all_better = max(sign * v for v in cv) < min(sign * v for v in pv)
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved", tally
    if pmed and sign * (cmed - pmed) / abs(pmed) > bound:
        return "worse", tally
    return "unchanged", tally


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(d) for d in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "{:28s} {:11s} {:>4s} {:>30s} {:>4s} {:>30s} {:>8s} {:>6s}  {}"
    print(fmt.format("metric", "workload", "n", "parent median [q1, q3]", "n",
                     "change median [q1, q3]", "delta", "wins", "verdict"))

    def values(runs, workload, trace, name):
        return {r["environment"]["seed"]: r["metrics"][name]["value"]
                for r in runs if r["environment"]["workload"] == workload
                and r["environment"]["trace"] == trace
                and name in r["metrics"]}

    def row(name, workload, pv, cv, wins, text):
        pmed, pq1, pq3 = summary(list(pv.values()))
        cmed, cq1, cq3 = summary(list(cv.values()))
        delta = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "n/a"
        print(fmt.format(name, workload, str(len(pv)),
                         f"{pmed:.5g} [{pq1:.5g}, {pq3:.5g}]", str(len(cv)),
                         f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]", delta, wins,
                         text))

    fails_more = {}
    for w in workloads:
        counts = []
        for runs in sides:
            rs = [r for r in runs if r["environment"]["workload"] == w
                  and r["environment"]["trace"] == 0]
            counts.append((sum(r["failed"] for r in rs),
                           sum(r["attempted"] for r in rs)))
        (pf, pa), (cf, ca) = counts
        if pa and ca:
            fails_more[w] = cf / ca > pf / pa
            print(fmt.format("failed tasks", w, "", f"{pf} of {pa}", "",
                             f"{cf} of {ca}", "", "",
                             "worse" if fails_more[w] else "unchanged"))
    for name, m in bounds.items():
        for w in workloads:
            pv, cv = (values(s, w, 0, name) for s in sides)
            if not pv or not cv:
                continue
            text, tally = verdict(pv, cv, m["bound"], m["better"] == "lower",
                                  fails_more[w])
            row(name, w, pv, cv, tally, text)
    names = sorted({n for runs in sides for r in runs
                    if r["environment"]["trace"] == 1 for n in r["metrics"]})
    for name in names:
        for w in workloads:
            pv, cv = (values(s, w, 1, name) for s in sides)
            if pv and cv:
                row(name, w, pv, cv, "", "n/a (per-layer, no bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
