#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the workspace).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--workload sweep-resnet50-ab]

Checks three things, on the faster declared workload by default:

1. the metric names and units a run prints equal those declared in
   BENCHMARK.json, untraced and traced;
2. a deliberately wrong pinned digest is counted as a failed operation
   (the correctness check can fail);
3. the deterministic `sim.*` counters repeat exactly across two traced
   runs.

Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
DETERMINISTIC = ["sim.effectual_ops", "sim.borrowed_frac", "sim.starved_frac",
                 "sim.bw_bound_layers", "sim.replay_frac", "workloads.builds"]


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "42",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("selftest: %s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="sweep-resnet50-ab")
    workload = ap.parse_args().workload
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)

    check(workload in [w["name"] for w in declared["workloads"]],
          "%s is declared in BENCHMARK.json" % workload)
    plain = run(workload, 0)
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {k: v["unit"] for k, v in plain["metrics"].items()}
    check(got == want, "untraced metric names and units match BENCHMARK.json")
    check(plain["correct"] and plain["failed"] == 0, "untraced run is correct")

    traced = [run(workload, 1) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
    check(got == want, "traced metric names and units match BENCHMARK.json")
    check(all(t["correct"] for t in traced), "traced runs are correct")
    same = [k for k in DETERMINISTIC
            if traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]]
    check(same == DETERMINISTIC, "deterministic counters repeat exactly: " + ", ".join(DETERMINISTIC))

    scratch = os.path.join(ROOT, ".bench_run", "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        with open(os.path.join(ROOT, "perfbench", "pins.json")) as f:
            pins = json.load(f)
        pins[workload]["42"]["csv"] = "0" * 64
        bad = os.path.join(scratch, "wrong-pins.json")
        with open(bad, "w") as f:
            json.dump(pins, f)
        broken = run(workload, 0, "--pins", bad)
        check(broken["failed"] > 0 and not broken["correct"],
              "a wrong pinned digest is counted as failed (%d of %d)"
              % (broken["failed"], broken["attempted"]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
