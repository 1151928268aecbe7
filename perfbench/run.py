#!/usr/bin/env python3
"""Builds the TDP benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <attr_rpc|cass_notify|parador_launch> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and compiles the
program's sources (../src) together with the tdp_perfbench binary into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Build output goes to stderr. The binary's stdout
is passed through: its last line is the result object, the line before it
the run's provenance. Spans of a traced run and a copy of each result are
written under <build dir>/results.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("attr_rpc", "cass_notify", "parador_launch")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the program and benchmark sources, for provenance."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir):
    """Configures (once) and builds; returns the binary's path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "tdp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "net", "message.hpp")):
        print("error: program sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(ROOT, build_root), "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "results"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
