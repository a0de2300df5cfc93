#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result line.

    python3 bench/e2e/run.py --workload sweep-paper --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use it configures and builds
bench_e2e from source with CMake into $CARGO_TARGET_DIR/bench_e2e (default
.bench_build/bench_e2e); later runs only rebuild what changed. It then runs
the workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric BENCHMARK.json names (--trace 0), or every per-layer one
(--trace 1), each as {"value", "unit"}. Everything else goes to standard
error. The benchmark's own JSON record and, with --trace 1, its Chrome
trace stay in the build directory under runs/.

Exits nonzero without a result line when the benchmark cannot be built,
does not finish in time, or reports a metric BENCHMARK.json does not list.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no earthred sources at %s/src; run from a full checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "bench_e2e")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = build()
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record_path = os.path.join(runs, stem + ".jsonl")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--json=" + record_path]
    if args.trace:
        cmd.append("--trace=" + os.path.join(runs, stem + "-trace.json"))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    # Exit code 1 means some job failed or was wrong: the record says so.
    if proc.returncode not in (0, 1) or not os.path.exists(record_path):
        fail("bench_e2e exited with code %d and no record" % proc.returncode)
    with open(record_path) as f:
        record = json.loads(f.read().splitlines()[-1])

    section, source = (("per_layer", "layers") if args.trace
                       else ("end_to_end", "metrics"))
    reported = record.get(source, {})
    metrics = {}
    for m in spec[section]:
        got = reported.get(m["name"])
        if got is None:
            fail("bench_e2e did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
