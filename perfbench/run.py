#!/usr/bin/env python3
"""Builds the repo's libraries and the benchmark from source, then runs it.

    python3 perfbench/run.py --workload oms_period --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

Run from the root of a checkout.  Everything it builds or writes goes
under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.  The
last line of standard output is the run's JSON result; build output goes
to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def provenance():
    """Git commit when available, else a hash of the measured sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:12]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_tests():
    out = build(["perfbench_test", "rtseed_perfbench"])
    env = dict(os.environ, PERFBENCH_WORKDIR=os.path.join(out, "work"))
    os.makedirs(env["PERFBENCH_WORKDIR"], exist_ok=True)
    rc = subprocess.run([os.path.join(out, "perfbench_test")], env=env).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", HERE,
                          "-p", "test_*.py"], env=env).returncode
    return 1 if rc else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["rtseed_perfbench"])
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out, "rtseed_perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--workdir", workdir, "--commit", provenance()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
