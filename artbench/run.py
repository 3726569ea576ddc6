#!/usr/bin/env python3
"""Builds the artifact benchmark from source and runs one workload.

Run from the root of the repository:

    python3 artbench/run.py --workload warm-repeat --seed 1 --seconds 10 --trace 0
    python3 artbench/run.py --selftest

The first run configures and builds artbench/ (which compiles ../src)
into .bench_build/artbench, and the first serve run trains the five
artifacts there once per build. The last line of standard output is the
run's JSON result; the lines before it are the readable report.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "artbench")
BINARY = os.path.join(BUILD, "artbench")
ARTIFACTS = os.path.join(BUILD, "artifacts")
OUT = os.path.join(BUILD, "out")
EXPECTED_MODELS = os.path.join(HERE, "expected_models.json")
WORKLOADS = ("warm-repeat", "cold-mix", "train-all")
SERVE_WORKLOADS = ("warm-repeat", "cold-mix")
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no OPPROX sources in {ROOT}/src; cannot build the benchmark")
        return False
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "--target", "artbench",
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def prepare_artifacts():
    """Trains the served artifacts once per build of the binary."""
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()
    stamp = os.path.join(ARTIFACTS, "built-by.sha256")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == build_id:
                return True
    shutil.rmtree(ARTIFACTS, ignore_errors=True)
    os.makedirs(ARTIFACTS)
    log("training the served artifacts for this build")
    prepare = subprocess.run([BINARY, "prepare", "--artifact-dir", ARTIFACTS],
                             stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
    if prepare.returncode != 0:
        return False
    with open(stamp, "w") as f:
        f.write(build_id + "\n")
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(args):
    if args.workload in SERVE_WORKLOADS and not prepare_artifacts():
        return 1
    os.makedirs(OUT, exist_ok=True)
    command = [BINARY, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--artifact-dir", ARTIFACTS,
               "--out-dir", OUT, "--expected", EXPECTED_MODELS]
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = bench.stdout.splitlines()
    if bench.returncode != 0 or not lines:
        sys.stderr.write(bench.stdout)
        log(f"artbench exited with code {bench.returncode}")
        return 1
    result = json.loads(lines[-1])
    wanted = declared_metrics(args.trace)
    if wanted is not None and set(result["metrics"]) != wanted:
        sys.stderr.write(bench.stdout)
        log("the run's metrics differ from those BENCHMARK.json declares: "
            f"{sorted(set(result['metrics']) ^ wanted)}")
        return 1
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own checks and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.run([BINARY, "selftest"]).returncode
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
