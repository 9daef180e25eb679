#!/usr/bin/env python3
"""Compares benchmark runs of two commits, metric by metric and workload by
workload, with the bounds in BENCHMARK.json.

usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>-<anything>.json,
whose last line is the JSON result perfbench/run.py prints. Runs of a
workload are paired in file-name order, so name them by run index and
alternate which commit runs first. For every workload x metric it reports
each side's median and quartiles, how many pairs the change won (ties count
for neither), and a verdict:
  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound, and not
              every change run beats every parent run;
  unchanged   otherwise.
Metrics without a bound (the per-layer ones) get medians and wins only.
Exits 1 if any metric regressed.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory, workloads):
    """workload -> list of metrics dicts, in file-name order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        workload = next((w for w in sorted(workloads, key=len, reverse=True)
                         if path.name.startswith(w + "-")), None)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if workload is None or not lines:
            continue
        result = json.loads(lines[-1])
        if not result.get("correct"):
            print(f"warning: {path} is not a correct run", file=sys.stderr)
        runs[workload].append({k: v["value"]
                               for k, v in result["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if bound is None:
        return wins, len(pairs), "-"
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return wins, len(pairs), "unresolved"
    if sign * (pm - cm) > bound * abs(pm):
        return wins, len(pairs), "regressed"
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return wins, len(pairs), "improved"
    return wins, len(pairs), "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    parent = load_runs(sys.argv[1], workloads)
    change = load_runs(sys.argv[2], workloads)

    regressed = False
    header = (f"{'workload':12} {'metric':36} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    print(header)
    for workload in workloads:
        if not parent[workload] or not change[workload]:
            continue
        names = [n for n in metrics
                 if all(n in r for r in parent[workload] + change[workload])]
        for name in names:
            m = metrics[name]
            p = [r[name] for r in parent[workload]]
            c = [r[name] for r in change[workload]]
            wins, pairs, v = verdict(p, c, m["better"], m.get("bound"))
            regressed |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:12} {name:36} {fmt(quartiles(p)):>32} "
                  f"{fmt(quartiles(c)):>32} {wins:>3}/{pairs:<2}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
