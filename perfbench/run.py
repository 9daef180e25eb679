#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; prints one JSON result line.

One workload, as the benchmark command:
    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Every workload in BENCHMARK.json, one "workload metric value unit" line per
metric, plus one combined JSON document:
    python3 perfbench/run.py --workload all [--smoke] [--out PATH] ...

Run it from the repository root. It configures and builds perfbench/ (the
simulator's libraries from src/ plus bench_e2e) in an optimized build under
$CARGO_TARGET_DIR (default .bench_build), runs bench_e2e, checks that it
printed exactly the metrics BENCHMARK.json names, and prints
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
as the last line of stdout. With --trace 1 the metrics are the per-layer
ones and the Chrome trace lands in the build directory.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bench_e2e"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    return build_dir / "bench_e2e"


def run_workload(binary, workload, args, expected, json_path=None):
    """Runs bench_e2e once; returns (result dict, exit ok) or (None, False)."""
    cmd = [str(binary), "--workload", workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        seed = "default" if args.seed is None else args.seed
        trace = args.build_dir / f"trace-{workload}-{seed}.json"
        cmd += ["--trace", str(trace)]
    if json_path is not None:
        cmd += ["--json", str(json_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: {e}")
        return None, False
    # 0: all checks passed; 1: metrics printed but a check failed.
    if proc.returncode not in (0, 1):
        log(f"{workload}: bench_e2e exited {proc.returncode}")
        return None, False

    metrics, run = {}, {}
    for line in proc.stdout.splitlines():
        if args.all:
            print(line, flush=True)
        fields = line.split()
        if len(fields) != 4 or fields[0] != workload:
            continue
        _, name, value, unit = fields
        if name.startswith("run."):
            run[name[4:]] = float(value)
        else:
            metrics[name] = {"value": float(value), "unit": unit}

    correct = proc.returncode == 0 and run.get("correct") == 1.0
    if set(metrics) != set(expected):
        log(f"{workload}: printed metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(expected))}")
        correct = False
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            log(f"{workload}: {name} is {m['value']}")
            m["value"] = 0.0
            correct = False
    if "check.violations" in metrics and metrics["check.violations"]["value"]:
        correct = False
    result = {
        "correct": correct,
        "attempted": int(run.get("attempted", 0)),
        "failed": int(run.get("failed", 0)),
        "metrics": {n: metrics[n] for n in expected if n in metrics},
    }
    return result, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall time to measure for, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 of each workload's simulated duration")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all: write one JSON document")
    parser.add_argument("--bin", type=Path, default=None,
                        help="use this bench_e2e instead of building one")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    args.all = args.workload == "all"
    args.build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in spec[key]]
    if not args.all and args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; BENCHMARK.json has "
            f"{', '.join(workloads)}")
        return 2

    binary = args.bin or build(args.build_dir)
    if binary is None or not Path(binary).is_file():
        return 2
    args.build_dir.mkdir(parents=True, exist_ok=True)  # traces, JSON

    if not args.all:
        result, ok = run_workload(binary, args.workload, args, expected)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0 if ok else 1

    points, all_ok = [], True
    for workload in workloads:
        json_path = args.build_dir / f"e2e-{workload}.json"
        result, ok = run_workload(binary, workload, args, expected, json_path)
        all_ok &= ok
        if result is None:
            continue
        points += json.loads(json_path.read_text())["points"]
    if args.out is not None:
        doc = {"bench": "perfbench_e2e", "schema_version": 1, "points": points}
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        log(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
