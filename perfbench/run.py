#!/usr/bin/env python3
"""Builds and runs the session-commit benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload travel --seed 1 --seconds 10 --trace 0

Workloads: travel, peer, peer_durable, replicated_logger. The first run in a
checkout configures and builds the library from src/ plus the benchmark
program (CMake, RelWithDebInfo as the repository builds) into
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs reuse that
build. Build output goes to stderr. The benchmark's scratch files
(durable journal directories) live under the build directory and are
removed after each run; traced runs keep their span files in
<build>/perfbench/spans.

The last line of stdout is the benchmark's JSON result. The exit status is
non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = os.path.join(build_dir, "perfbench")
    os.makedirs(tree, exist_ok=True)
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", tree,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", tree, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(tree, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["travel", "peer", "peer_durable",
                                 "replicated_logger"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, "perfbench", "scratch-%d" % os.getpid())
    spans = os.path.join(build_dir, "perfbench", "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: exited with status %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        print("perfbench: no JSON result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
