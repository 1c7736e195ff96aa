#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The benchmark is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to standard error. The last
line of standard output is the result JSON the benchmark binary prints.

With --trace 1 the workload runs twice with the same seed: untraced,
then traced. The traced run's per-layer metrics are printed together
with the tracing overhead, the change of the end-to-end latency and
throughput between the two runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.abspath(__file__))
# Every run, traced or not, ends within this many seconds after the build.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    # Configuring every time is cheap once cached, and repairs a build
    # tree whose first configure was interrupted.
    steps = [["cmake", "-S", ROOT, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", target, "-j", jobs]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run_binary(binary, args, deadline):
    """Run the benchmark in its own process group; return its stdout lines."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Worker processes of serve_wire share the group; none may outlive
        # the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit("perfbench: benchmark exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def e2e_of(lines):
    for line in lines:
        if line.startswith("e2e: "):
            return json.loads(line[len("e2e: "):])["metrics"]
    sys.exit("perfbench: no end-to-end line in the traced run")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if a.self_test:
        sys.exit(subprocess.call([build("perfbench_tests")]))
    if not a.workload:
        ap.error("--workload is required")

    binary = build("perfbench")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not a.trace:
        lines, result = run_binary(binary, args + ["--trace", "0"], deadline)
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        return

    _, base = run_binary(binary, args + ["--trace", "0"], deadline)
    trace_path = os.path.join(build_dir(), "trace-%s-%d.json"
                              % (a.workload, a.seed))
    lines, result = run_binary(
        binary, args + ["--trace", "1", "--trace-out", trace_path], deadline)
    print("\n".join(lines[:-1]))
    untraced, traced = base["metrics"], e2e_of(lines)

    def change_pct(name):
        ref = untraced[name]["value"]
        return 100.0 * (traced[name]["value"] / ref - 1.0) if ref else 0.0

    overhead = {
        "trace.overhead_latency_pct": change_pct("latency_p50_ms"),
        "trace.overhead_throughput_pct": -change_pct("throughput_ops_s"),
    }
    for name, value in overhead.items():
        print("%-46s %12.3f %%" % (name, value))
        result["metrics"][name] = {"value": value, "unit": "%"}
    result["correct"] = result["correct"] and base["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
