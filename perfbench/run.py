#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
store from ../src) and runs one workload:

    python3 perfbench/run.py --workload ycsb-a-zipf-tcp --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, and the driver's side outputs
(spans, stall dumps, FileDevice temp directories) to perfbench-out/ there.
The last line of stdout is the driver's JSON result. The exit code is the
driver's: 0 ok, 1 oracle or durability violation, 2 bad arguments or a
failed build or set-up, 3 stall.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["ycsb-a-zipf-tcp", "rmw-uniform-durable"]
RUN_TIMEOUT_S = 175


def build(root, build_dir):
    """Configures and builds dpr_perfbench; build output goes to stderr."""
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "dpr_perfbench",
                 "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "dpr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", os.path.join(build_dir, "perfbench-out")]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: driver printed no result", file=sys.stderr)
        return 2
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else
                                        "end_to_end"]}
    if set(result["metrics"]) != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(result["metrics"]) ^ expected), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
