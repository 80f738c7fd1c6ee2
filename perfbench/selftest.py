#!/usr/bin/env python3
"""The benchmark's own test: its oracle must pass the real system and
catch both negative controls.

    python3 perfbench/selftest.py

Runs short benchmark runs from the root of the checkout:
  - a clean run of every workload must print correct=true, failed=0 and
    exit 0, with every end-to-end metric named in BENCHMARK.json;
  - `--control wrong-count` (the oracle expects one schedule more than
    |pids|^depth) must print correct=false and exit non-zero;
  - `--control tamper-reply` (one served reply has its booleans, verdict
    and schedule count flipped before classification) must do the same.
Exits 0 when all of that holds.
"""

import json
import subprocess
import sys

SECONDS = "2"


def run(workload, *extra):
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", "0", *extra],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"]]
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in [w["name"] for w in bench["workloads"]]:
        rc, r = run(w)
        expect(rc == 0 and r is not None and r["correct"] and r["failed"] == 0,
               f"{w}: clean run passes")
        expect(r is not None and sorted(r["metrics"]) == sorted(names),
               f"{w}: every end-to-end metric reported")

    for workload, control in [("mc-ladder", "wrong-count"),
                              ("mc-reduced", "tamper-reply"),
                              ("serve-mix", "tamper-reply")]:
        rc, r = run(workload, "--control", control)
        expect(rc != 0 and r is not None and not r["correct"] and r["failed"] > 0,
               f"{workload}: --control {control} fails the run")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
