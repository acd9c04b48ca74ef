#!/usr/bin/env python3
"""Smoke test of the ledger benchmark.

    python3 ledger/smoke_test.py [--seconds S]

Run from the repository root.  Runs every workload named in BENCHMARK.json
at minimal length, untraced and traced, with every correctness check on,
and asserts that each result line is well formed, correct, and names
exactly the metrics (with their units) that BENCHMARK.json declares.  Also
asserts that ledger/predictions.json speaks only of declared workloads and
metrics.  Exits 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))


def metric_names(text):
    """Metric names mentioned at the start of a prediction entry."""
    return re.findall(r"^[a-z][a-z0-9_.]*", text)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(LEDGER_DIR, "predictions.json")) as f:
        plan = json.load(f)

    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    if sorted(plan["workloads"]) != sorted(workloads):
        problems.append("predictions.json workloads differ from BENCHMARK.json")
    for row in plan["predictions"]:
        for name in row["layer"]:
            if name not in layers:
                problems.append("predictions.json names unknown layer metric " + name)
        for text in row["moves"]:
            for name in metric_names(text):
                if name not in e2e:
                    problems.append("predictions.json names unknown metric " + name)
        for w in row["on"]:
            if w not in workloads:
                problems.append("predictions.json names unknown workload " + w)
    for name in plan["end_to_end_definitions"]:
        if name not in e2e:
            problems.append("predictions.json defines unknown metric " + name)

    for w in workloads:
        for trace, expected in (("0", e2e), ("1", layers)):
            cmd = list(bench["command"]) + [
                "--workload", w, "--seed", "7",
                "--seconds", str(args.seconds), "--trace", trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            tag = "%s --trace %s" % (w, trace)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit %d: %s" % (tag, proc.returncode, proc.stderr[-500:]))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(tag + ": result keys " + str(sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(tag + ": checks failed: " + lines[-2][-500:])
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(tag + ": attempted must be a whole number >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in got if k in expected and got[k] != expected[k])
                problems.append("%s: metrics differ (missing %s, extra %s, unit %s)"
                                % (tag, missing, extra, wrong))
            print(("ok   " if len(problems) == before else "FAIL ") + tag, flush=True)

    for msg in problems:
        print("FAIL " + msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
