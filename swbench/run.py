#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 swbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds the program and the benchmark
from source with dune into .bench_build/, runs the workload, and prints
one JSON result line last (see swbench/README.md).  Exits non-zero
without a result when the sources are missing or any step fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["suite", "serve-miss", "serve-hot"]
BUILD_DIR = os.path.join(".bench_build", "dune")
TARGETS = ["./swbench/swbench.exe", "./bin/serve.exe"]
REQUIRED = ["dune-project", "dune-workspace", "lib", "bin/serve.ml", "test/golden", "swbench/dune"]
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("swbench: not a smallworld checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR)] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("swbench: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(BUILD_DIR, "default", "swbench", "swbench.exe")
    serve = os.path.join(BUILD_DIR, "default", "bin", "serve.exe")
    work = os.path.join(".bench_build", "work", "%s-%d" % (a.workload, os.getpid()))
    cmd = [exe, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--serve-exe", serve, "--work-dir", work, "--repo", "."]
    # Own process group, so a timeout takes down every process the run
    # started (phase children, daemons).
    p = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, frame):
        os.killpg(p.pid, signal.SIGKILL)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("swbench: run timed out", file=sys.stderr)
        code = 4
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
