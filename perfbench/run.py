#!/usr/bin/env python3
"""Session-replay benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload read_disk --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout. Builds endure_server and the
replay driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build, then runs session_replay, which sets up the tuned durable
deployment, serves it from endure_server in its own process and replays
the op stream generated from --seed. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (and writes the
span file under <build dir>/traces). The last line of stdout is the
result as one JSON object; see README.md in this directory.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no files in the checkout
sys.path.insert(0, HERE)

import trace_report  # noqa: E402

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Runs in the child before exec: the driver (and, through its own
    death signal, the server) ends when this script does."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no endure sources next to perfbench/; run from a checkout")
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "session_replay", "endure_server"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "session_replay"),
            os.path.join(cmake_dir, "endure", "endure_server"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    driver, server = build(build_dir)

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    # One span file per workload, replaced by its next traced run.
    spans = os.path.join(build_dir, "traces", args.workload + ".tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--server=" + server, "--work-dir=" + work]
    if args.trace:
        cmd.append("--spans=" + spans)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("session_replay failed (exit %d)" % done.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    samples = result.get("samples", {})
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = bool(result["correct"])

    if args.trace:
        rep = trace_report.analyse(spans)
        print(trace_report.format_report(rep))
        metrics.update(rep["metrics"])
        samples.update(rep["samples"])
        print("spans: " + spans)
    else:
        print("error_frac = %.6g (%d of %d ops failed or answered wrong)" % (
            metrics["error_frac"], failed, attempted))

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail("session_replay did not report " + m["name"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        n = samples.get(m["name"])
        print("%-40s %14.6g %-6s%s" % (m["name"], metrics[m["name"]],
                                      m["unit"], " (n=%d)" % n if n else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
