#!/usr/bin/env python3
"""Builds and runs the DeepRest end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds e2ebench/ (which compiles ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs the benchmark and
passes its output and exit code through. The last stdout line of a run that
passed its correctness gates is the JSON result; any other run exits nonzero
without one. See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    """Kill a run after this long: set-up and capacity probes plus the
    measured phases, which scale with --seconds (170 s at --seconds 10)."""
    return 90 + 8 * seconds


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures once, then brings the benchmark binary up to date. Output to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    step = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no DeepRest sources next to e2ebench/ (expected %s)" %
                    os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    if not build(build_dir):
        return fail("build failed", 1)

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    timeout = run_timeout_s(args.seconds)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=timeout, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % timeout, 1)
    finally:
        for name in os.listdir(scratch):
            if name.endswith(".slab"):
                os.remove(os.path.join(scratch, name))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
