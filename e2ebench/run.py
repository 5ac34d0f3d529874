#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload ofdm_symbol|farm_soak|dse_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark package (this directory)
is configured and built with CMake in the build directory - $CARGO_TARGET_DIR
when set, else .bench_build - against the simulator library sources one
directory up, in Release mode. The first run builds (about a minute on 4
cores); later runs only check that the build is current. The benchmark's own
output, ending in the one-line JSON result, goes to standard output; build
output goes to standard error. Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def commit_id():
    try:
        # The ceiling keeps git from searching above the source tree.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: the simulator sources are not next to %s" % HERE, file=sys.stderr)
        return 1
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", os.path.join(build_dir, "scratch"), "--commit", commit_id()]
    sys.stdout.flush()
    # Own process group, so a run that overstays is stopped with every
    # farm worker it forked.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
