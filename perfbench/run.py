#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Griffin workspace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-bert-b --seed 42 --seconds 50 --trace 0

Builds the `griffin-perfbench` worker (perfbench/Cargo.toml) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload in fresh
worker processes until `--seconds` have been measured, checks every
report, and prints a metric table followed by one JSON result line.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
DEFAULT_PINS = os.path.join(BENCH, "pins.json")

WORKLOADS = {
    "sweep-bert-b": "scenarios/fig5-bert-b.toml",
    "sweep-resnet50-ab": "scenarios/table7-lineup.toml",
}
# Fresh worker processes per run, each one cold campaign.
MIN_CAMPAIGNS = 3
# Set-up-only worker processes started before each cold campaign.
SETUPS_PER_CAMPAIGN = 8
# Every worker is killed once the run is this many seconds past
# `--seconds` (counted from the end of the build), so a hung worker
# cannot hold the run past its time limit. It covers the last campaign
# of a timed run, or the whole traced run.
RUN_MARGIN_S = 120
run_deadline = None

LINEUP = ["baseline", "sparse_b_star", "tcl_b", "sparse_a_star", "sparse_ab_star",
          "griffin", "tdash_ab", "sparten_ab"]

# Declared in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = dict(
    [
        ("workloads.build_s", "s"),
        ("workloads.builds", "count"),
        ("core.simulate_s", "s"),
    ]
    + [("core.simulate_s." + a, "s") for a in LINEUP]
    + [
        ("sim.family_speedup", "x"),
        ("sim.replay_frac", "ratio"),
        ("sim.ns_per_op", "ns"),
        ("sim.effectual_ops", "count"),
        ("sim.borrowed_frac", "ratio"),
        ("sim.starved_frac", "ratio"),
        ("sim.bw_bound_layers", "count"),
        ("executor.cpu_util", "ratio"),
        ("cache.lookup_ms", "ms"),
        ("cache.store_ms", "ms"),
        ("report.csv_ms", "ms"),
        ("report.json_ms", "ms"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("wire.accept_ms", "ms"),
        ("serve.queue_ms", "ms"),
        ("fleet.campaign_ms", "ms"),
        ("wire.tail_ms", "ms"),
        ("wire.report_ms", "ms"),
        ("cache.hit_frac", "ratio"),
        ("serve.deduped", "count"),
        ("fleet.events_per_submit", "count"),
        ("watch.fold_us_per_event", "us"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def p50(values):
    return statistics.median(values)


def provenance():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.SubprocessError):
            return "unknown"

    return {
        "nproc": nproc(),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]),
        "rustc": first_line(["rustc", "--version"]),
    }


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(target_dir, "release", "griffin-perfbench")


class Child:
    """One finished worker process: its JSON result and peak RSS."""

    def __init__(self, result, rusage):
        self.result = result
        self.rss_mb = rusage.ru_maxrss / 1024.0


def run_child(binary, args, cwd):
    """Runs the worker in `cwd`; returns a Child, or None if it failed."""
    os.makedirs(cwd, exist_ok=True)
    out_path, err_path = os.path.join(cwd, "stdout"), os.path.join(cwd, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([binary] + args, cwd=cwd, stdout=out, stderr=err)
    watchdog = threading.Timer(max(1.0, run_deadline - time.monotonic()), proc.kill)
    watchdog.start()
    # wait4 rather than Popen.wait: it returns this child's own rusage.
    _, status, rusage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as f:
            log("perfbench: worker %s failed (%d): %s" % (args[0], proc.returncode, f.read().strip()))
        return None
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    return Child(json.loads(lines[-1]), rusage)


class Checks:
    """Counts attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    def expect(self, ok, note):
        self.add(1, 0 if ok else 1, note)


def load_pins(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def worker_args(cmd, scenario, seed):
    return [cmd, "--scenario", os.path.join(ROOT, scenario), "--seed", str(seed)]


def check_reports(cwd, checks, pins, seed, seen):
    """The reports must match the pins, or for an unpinned seed every
    other process of the run."""
    digest = {"csv": sha256(os.path.join(cwd, "report.csv")),
              "json": sha256(os.path.join(cwd, "report.json"))}
    pinned = pins.get(str(seed))
    if pinned is not None:
        checks.expect(pinned == digest, "report differs from the pinned digest")
    else:
        seen.setdefault("digest", digest)
        checks.expect(seen["digest"] == digest, "report differs between processes")


def repeat(seconds, minimum, body):
    """Calls body(k) for k = 0, 1, ... until `minimum` calls are done and
    another call of the last one's length would overrun `seconds`."""
    start = time.monotonic()
    k, last = 0, 0.0
    while k < minimum or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        body(k)
        last = time.monotonic() - t
        k += 1


def untraced(binary, scenario, seed, seconds, run_dir, checks, pins):
    children = []
    setups = []
    seen = {}

    def body(k):
        for j in range(SETUPS_PER_CAMPAIGN):
            child = run_child(binary, worker_args("setup", scenario, seed),
                              os.path.join(run_dir, "setup-%d-%d" % (k, j)))
            checks.expect(child is not None, "set-up worker failed")
            if child is not None:
                setups.append(child.result["setup_s"])
        cwd = os.path.join(run_dir, "cold-%d" % k)
        child = run_child(binary, worker_args("sweep", scenario, seed), cwd)
        checks.expect(child is not None, "worker failed")
        if child is None:
            return
        check_reports(cwd, checks, pins, seed, seen)
        setups.append(child.result["setup_s"])
        children.append(child)

    repeat(seconds, MIN_CAMPAIGNS, body)
    if not children:
        raise SystemExit("perfbench: no sweep process finished")
    metrics = {
        "setup_s": p50(setups),
        "cells_per_s": p50([c.result["cells"] / c.result["cold_s"] for c in children]),
        "peak_rss_mb": p50([c.rss_mb for c in children]),
    }
    return metrics, "%d cold campaigns, %d set-ups, one per fresh process" % (
        len(children), len(setups))


def traced(binary, scenario, seed, run_dir, checks, pins):
    cwd = os.path.join(run_dir, "traced")
    u = run_child(binary, worker_args("sweep", scenario, seed), cwd)
    if u is None:
        raise SystemExit("perfbench: untraced reference campaign failed")
    checks.add(1, 0)
    check_reports(cwd, checks, pins, seed, {})
    tr = run_child(binary, worker_args("trace", scenario, seed), cwd)
    if tr is None:
        raise SystemExit("perfbench: traced decomposition failed")
    t, u = tr.result, u.result
    checks.add(1 + t["submissions"], len(t["mismatches"]), "; ".join(t["mismatches"]))
    cold_s = u["cold_s"]
    m = {
        "workloads.build_s": t["build_s"],
        "workloads.builds": t["builds"],
        "core.simulate_s": t["simulate_s"],
        "sim.family_speedup": t["per_arch_s"] / t["family_s"],
        "sim.replay_frac": t["replay_frac"],
        "sim.ns_per_op": t["simulate_s"] * 1e9 / t["effectual_ops"],
        "sim.effectual_ops": t["effectual_ops"],
        "sim.borrowed_frac": t["borrowed_frac"],
        "sim.starved_frac": t["starved_frac"],
        "sim.bw_bound_layers": t["bw_bound_layers"],
        "cache.lookup_ms": t["lookup_ms"],
        "cache.store_ms": t["store_ms"],
        "report.csv_ms": t["csv_ms"],
        "report.json_ms": t["json_ms"],
    }
    for a in LINEUP:
        m["core.simulate_s." + a] = t["lineup_s"][a]
    events = t["events"]
    m.update({
        "wire.accept_ms": p50(t["accept_ms"]),
        "serve.queue_ms": p50(t["queue_ms"]),
        "fleet.campaign_ms": p50(t["campaign_ms"]),
        "wire.tail_ms": p50(t["tail_ms"]),
        "wire.report_ms": p50(t["report_ms"]),
        "cache.hit_frac": t["cached"] / t["cell_done"] if t["cell_done"] else 0.0,
        "serve.deduped": t["deduped"],
        "fleet.events_per_submit": events / t["submissions"],
        "watch.fold_us_per_event": t["fold_us"] / events if events else 0.0,
    })
    spans_s = t["build_s"] + t["simulate_s"] + (
        t["lookup_ms"] + t["store_ms"] + t["csv_ms"] + t["json_ms"]) / 1e3
    m["executor.cpu_util"] = u["cpu_ticks"] / os.sysconf("SC_CLK_TCK") / (cold_s * u["workers"])
    m["trace.coverage"] = spans_s / cold_s
    m["trace.overhead_s"] = t["mirror_s"] - cold_s
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", default=DEFAULT_PINS,
                    help="digest file checked against the reports (default: perfbench/pins.json)")
    ap.add_argument("--record-pins", action="store_true",
                    help="write this run's report digests into the pins file instead of checking")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        raise SystemExit("perfbench: --seed must be in [0, 2^63)")
    if args.record_pins and args.trace:
        raise SystemExit("perfbench: --record-pins records untraced runs; use --trace 0")

    scenario = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(ROOT, scenario)):
        raise SystemExit("perfbench: %s not found; run from a full checkout" % scenario)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    global run_deadline
    run_deadline = time.monotonic() + args.seconds + RUN_MARGIN_S

    all_pins = load_pins(args.pins)
    pins = {} if args.record_pins else all_pins.get(args.workload, {})
    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    checks = Checks()
    try:
        if args.trace:
            declared = PER_LAYER
            metrics = traced(binary, scenario, args.seed, run_dir, checks, pins)
            samples = "one traced run"
        else:
            declared = END_TO_END
            metrics, samples = untraced(binary, scenario, args.seed, args.seconds,
                                        run_dir, checks, pins)
        if args.record_pins:
            first = os.path.join(run_dir, "cold-0")
            digest = {"csv": sha256(os.path.join(first, "report.csv")),
                      "json": sha256(os.path.join(first, "report.json"))}
            all_pins.setdefault(args.workload, {})[str(args.seed)] = digest
            with open(args.pins, "w") as f:
                json.dump(all_pins, f, indent=2, sort_keys=True)
                f.write("\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta = provenance()
    failed_frac = checks.failed / max(checks.attempted, 1)
    print("# %s seed=%d trace=%d nproc=%d rev=%s %s" % (
        args.workload, args.seed, args.trace, meta["nproc"], meta["git_rev"], meta["rustc"]))
    print("# samples: %s" % samples)
    for name in declared:
        print("%-28s %16.6g %s" % (name, metrics[name], declared[name]))
    print("%-28s %16.6g %s  (%d of %d)" % ("failed_frac", failed_frac, "ratio",
                                           checks.failed, checks.attempted))
    for note in checks.notes[:8]:
        print("# check failed: %s" % note)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
