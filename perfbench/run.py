#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds the perfbench
package (perfbench/CMakeLists.txt, which compiles the library from ../src)
in $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload. Build output goes to standard error. Standard output gets one
provenance line (machine, compiler, build, source revision), the workload's
metric table, and as its last line the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones; see
perfbench/README.md. Exits non-zero without a result when the library
sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def cache_value(build_dir, key):
    pattern = re.compile(rf"^{re.escape(key)}:[A-Z]+=(.*)$")
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = pattern.match(line.strip())
            if m:
                return m.group(1)
    return ""


def provenance(build_dir):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    flags = " ".join(f for f in (cache_value(build_dir, "CMAKE_CXX_FLAGS"),
                                 cache_value(build_dir, f"CMAKE_CXX_FLAGS_{build_type.upper()}"),
                                 "-std=c++20 -Wall -Wextra -Wshadow") if f)
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        revision = sha.stdout.strip() if sha.returncode == 0 else "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        revision = "unavailable (git not found)"
    return {
        "provenance": "measured",
        "cores": os.cpu_count(),
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": flags,
        "git_sha": revision,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    print(json.dumps(provenance(build_dir)), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")


if __name__ == "__main__":
    main()
