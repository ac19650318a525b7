#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload grid8 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run builds the simulator
and the driver from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
reuse the build.  The driver process measures; this wrapper adds the
git commit to the machine record, writes the full report (and, for
--trace 1, the spans) under <build dir>/results/, prints a readable
summary, and ends stdout with the one-line result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("grid8", "serve_exact", "serve_estimate")
# A run must end within 180 s; leave room for the wrapper's own work.
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure and build perfbench; return the binary path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no simulator sources next to perfbench/ (expected src/);"
            " run from a full checkout")
        return None
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]
                         + (["-G", "Ninja"] if have("ninja") else []))
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                log("build step failed:", " ".join(cmd))
                return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    declared = declared_metrics(args.trace)

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 3
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    report["machine"]["git_commit"] = git_commit()
    report["wall_s"] = time.monotonic() - start

    metrics = report["metrics"]
    problems = list(report["errors"])
    if set(metrics) != set(declared):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if name in declared and m["unit"] != declared[name]:
            problems.append(f"{name}: unit {m['unit']} != {declared[name]}")
        if not (isinstance(m["value"], (int, float))
                and math.isfinite(m["value"])):
            problems.append(f"{name}: value is not a finite number")
    correct = bool(report["correct"]) and not problems
    report["errors"] = problems
    report["correct"] = correct
    path = os.path.join(results, stem + ".json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    mach = report["machine"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={fmt(args.seconds)} trace={args.trace}")
    for note in report["notes"]:
        print("note:", note)
    print("machine:", " ".join(f"{k}={fmt(v)}" for k, v in mach.items()))
    draw = report["draw"]
    print(f"draw: {len(draw['mixes'])} mixes, {len(draw['requests'])} "
          f"distinct requests (listed in the report)")
    print("simulated-statistics digest:", report["digest"])
    for name in sorted(metrics):
        print(f"  {name} = {fmt(metrics[name]['value'])} "
              f"{metrics[name]['unit']}")
    for name, v in report["detail"].get("named", {}).items():
        print(f"  [{args.workload}] {name} = {fmt(v)}")
    for name, o in report.get("tracing_overhead", {}).items():
        print(f"  tracing overhead {name}: traced {fmt(o['traced'])} - "
              f"untraced {fmt(o['untraced'])} = {fmt(o['difference'])}")
    for layer, t in report.get("layer_spans", {}).items():
        print(f"  self time {layer}: {fmt(t['self_s'])} s of "
              f"{fmt(t['total_s'])} s in {t['spans']} spans")
    print(f"checks: attempted={report['attempted']} "
          f"failed={report['failed']} correct={correct}")
    for p in problems[:10]:
        print("  check failed:", p)
    print("report:", os.path.relpath(path, ROOT))

    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
