#!/usr/bin/env python3
"""Self-test of the serving benchmark: a seconds-long smoke of every
workload, traced and untraced, plus a check that the correctness gate trips.

    python3 servebench/selftest.py

Asserts that each run exits 0 and ends with the result JSON line, that every
metric BENCHMARK.json names for that mode is present and finite, and that a
run with one reply checksum deliberately corrupted in the client exits
non-zero and reports correct=false. Takes about two minutes on 4 cores.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            status, result = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if status != 0 or result is None:
                failures.append("%s: exit %d, result %r" % (label, status, result))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s: not correct: %r" % (label, result))
            for metric in spec[key]:
                entry = result["metrics"].get(metric["name"])
                if entry is None:
                    failures.append("%s: missing %s" % (label, metric["name"]))
                elif (not isinstance(entry["value"], (int, float))
                      or not math.isfinite(entry["value"]) or entry["unit"] != metric["unit"]):
                    failures.append("%s: bad %s %r" % (label, metric["name"], entry))
            print("ok  %s: %d requests" % (label, result["attempted"]), flush=True)

    status, result = run("warm-hits", 0, ("--corrupt-reply", "3"))
    if status == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append("corrupted reply did not trip the gate: exit %d, %r" % (status, result))
    else:
        print("ok  corrupted reply trips the gate (exit %d, %d failed)" % (status, result["failed"]))

    for failure in failures:
        print("FAIL " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
