#!/usr/bin/env python3
"""Build and run the fleet benchmark from the root of a source checkout.

    python3 fleetbench/run.py --workload smd_sparse --seed 1 --seconds 30 --trace 0

Configures fleetbench/CMakeLists.txt (which builds the library from src/)
into $CARGO_TARGET_DIR/fleetbench, or .bench_build/fleetbench when that is
unset, builds it, and runs the fleetbench program with the given arguments.
Build output goes to stderr, so the program's JSON result stays the last
stdout line. A traced run (--trace 1) also writes its spans as a Chrome
trace next to the build. Exits non-zero, printing no result, when the build
or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def arg_value(argv, key, default):
    return argv[argv.index(key) + 1] if key in argv[:-1] else default


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "fleetbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "fleetbench")


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "fleetbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    extra = ["--charts", os.path.join(ROOT, "examples", "charts")]
    if arg_value(argv, "--trace", "0") == "1":
        name = "trace-{}-{}.json".format(arg_value(argv, "--workload", "unknown"),
                                         arg_value(argv, "--seed", "0"))
        extra += ["--trace-out", os.path.join(build_dir, name)]
    return subprocess.run([binary] + argv + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
