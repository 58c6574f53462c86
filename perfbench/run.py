#!/usr/bin/env python3
"""The repo benchmark: build perfbench from source, run one workload, print one result.

usage: python3 perfbench/run.py --workload build|transient|wire --seed N
                                --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the atmor
library and the perfbench binaries (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only check that the build is current.
Then it runs the arithmetic self-tests and the workload. An untraced run
first runs the workload's set-up alone in two processes of its own; setup_s
is the median of their set-ups and the run's, each timed from process start.

Standard output carries the environment header and progress lines of the
binary, and as its last line one JSON object {correct, attempted, failed,
metrics}: the end_to_end metrics BENCHMARK.json names when --trace is 0, its
per_layer metrics when --trace is 1. The exit code is nonzero, and no result
is printed, when the build, the self-tests or the run fail, or when the run
did not report a metric BENCHMARK.json names.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160.0  # the set-up processes and the run together
SETUP_SAMPLES = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (a no-op when current), then build the two perfbench targets."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "perfbench_selftest", "-j", jobs], stdout=sys.stderr, check=True)


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")], check=True,
                       timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id(),
           "--out-dir", os.path.join(build_dir, "out")]
    start = time.monotonic()

    def run(extra):
        """Run perfbench; returns its output lines and parsed result, or None."""
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        try:
            proc = subprocess.run(cmd + extra, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
            log(f"perfbench did not finish within {RUN_TIMEOUT_S:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"perfbench exited with code {proc.returncode}")
            return None
        return lines, json.loads(lines[-1])

    setups = []
    attempted = failed = 0
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        out = run(["--setup-only", "1"])
        if out is None or "setup_s" not in out[1]["metrics"]:
            log("a set-up process did not report setup_s")
            return 1
        setups.append(out[1]["metrics"]["setup_s"]["value"])
        attempted += out[1]["attempted"]
        failed += out[1]["failed"]
    out = run([])
    if out is None:
        return 1
    lines, result = out
    for line in lines[:-1]:
        print(line)
    if setups and "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"]["value"])
        print(f"set-ups from process start: {', '.join(f'{v:.3f}' for v in setups)} s")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} ({m['unit']}) missing from the run: {got}")
            return 1
        metrics[m["name"]] = got
    log(f"{args.workload} finished in {time.monotonic() - start:.1f} s")
    failed += result["failed"]
    print(json.dumps({"correct": result["correct"] and failed == 0,
                      "attempted": attempted + result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
