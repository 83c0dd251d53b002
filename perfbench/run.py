#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds perfbench/ (and
the hFAD libraries it links, from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the self-tests once per build. Every call then runs
one workload and relays its report; the last line of standard output is the JSON
result. The exit code is the benchmark's: non-zero when the build, the self-tests,
an op or an oracle failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd with output to stderr; returns its exit code (killed on timeout)."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    """Configures (once) and builds; returns True when the binaries are current."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        log(f"no hFAD sources next to {HERE}; nothing to build")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S) == 0


def selftest(build_dir):
    """Runs the self-tests unless they already passed against this build."""
    binary = os.path.join(build_dir, "perfbench_selftest")
    stamp = os.path.join(build_dir, "selftest.passed")
    built = str(os.path.getmtime(binary))
    if os.path.isfile(stamp) and open(stamp).read() == built:
        return True
    if run_checked([binary], RUN_TIMEOUT_S) != 0:
        log("benchmark self-tests failed")
        return False
    with open(stamp, "w") as f:
        f.write(built)
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without one."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the self-tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir) or not selftest(build_dir):
        return 2
    if args.selftest:
        return 0

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(build_dir, "spans")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no JSON result")
        return proc.returncode or 1
    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log("reported metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(result['metrics']))}")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
