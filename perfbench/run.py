#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Run from the repository root. The first run configures and builds the
library and the perfbench binary under $CARGO_TARGET_DIR (default
.bench_build). The binary's own lines (fingerprint, every metric with its
sample count) are passed through; the last line printed is one JSON object holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Exits nonzero when a correctness check fails (after printing
the result, "correct": false), and without printing a result when the tree
is incomplete, the build fails or the run overruns its time.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="window length; default BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                 "perfbench/corpus.scn", "src/harness/deployment.hpp"):
        if not os.path.isfile(need):
            fail(f"{need} not found: run from the repository root")
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")

    if args.test:
        exe = build(build_dir, "perfbench_tests")
        sys.exit(subprocess.run([exe]).returncode)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build(build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"perfbench exited {run.returncode} without a result", 1)

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    if run.returncode != 0 or not raw["correct"]:
        fail(f"correctness check failed (perfbench exit {run.returncode})", 1)


if __name__ == "__main__":
    main()
