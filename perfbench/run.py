#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload mc-ladder --seed 1 --seconds 20 --trace 0

Builds `wfa` and `perfbench.exe` with dune (inside the checkout, dune cache
off), then runs `perfbench.exe`. Its last stdout line is the JSON result;
the exit code is 0 only when every answer checked out. Extra flags
(`--control wrong-count|tamper-reply`) pass through to it.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_DIR = "_build"
BENCH_EXE = "perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin", "perfbench/perfbench.ml",
                 "perfbench/mix.json"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} missing; run from the root of a "
                  "complete checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./" + BENCH_EXE, "./bin/wfa.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD_DIR, "default", BENCH_EXE),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wfa", os.path.join(BUILD_DIR, "default", "bin", "wfa.exe"),
           "--commit", source_id(root)] + extra
    # a terminated benchmark still reaps its servers (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        # perfbench.exe reaps its own servers; this catches anything it left
        # behind when it was killed or timed out
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
