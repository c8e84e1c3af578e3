#!/usr/bin/env python3
"""Host-cost benchmark of the ZygOS simulator.

Run from the repository root:

    python3 perfbench/run.py --workload zygos-16 --seed 1 --seconds 20 --trace 0

Builds perfbench/bin/main.exe with dune, then runs passes of the workload,
each in a fresh process, until --seconds have passed (at least three
passes). Pass 0 also rebuilds every point under spans and checks it against
the library's runner bit for bit; pass 1 also reruns every point on the
heap event queue. Every pass checks the simulation invariants, and all
passes must produce the same simulated digest.

With --trace 0 the last line reports the end-to-end metrics, with --trace 1
(every pass traced) the per-layer metrics: medians over passes, with every
host time at reference speed (see REF_NS below). See perfbench/README.md for the
metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
OUT = os.path.join("perfbench", ".out")
WORKLOADS = ("zygos-16", "baselines-16", "rack-failover")
MIN_PASSES = 3
PASS_TIMEOUT_S = 100

END_TO_END = {
    "host_ns_per_req.low": "ns",
    "host_ns_per_req.mid": "ns",
    "host_ns_per_req.high": "ns",
    "host_ns_per_req": "ns",
    "minor_words_per_req": "words",
    "peak_heap_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "engine.events_per_req": "count",
    "engine.cancels_per_req": "count",
    "engine.pool_slots": "count",
    "engine.cycle_ns": "ns",
    "engine.attributed_ns_per_req": "ns",
    "net.submit_ns": "ns",
    "net.loadgen.complete_ns": "ns",
    "net.rss.queue_of_conn_ns": "ns",
    "net.request.pool_hwm": "count",
    "net.request.reuse_ratio": "ratio",
    "net.loadgen.retries_per_req": "count",
    "net.loadgen.timeouts_per_req": "count",
    "net.loadgen.duplicates_per_req": "count",
    "net.loadgen.useful_ratio": "ratio",
    "systems.residual_ns_per_req": "ns",
    "systems.ns_per_event": "ns",
    "systems.zygos.steal_fraction": "frac",
    "systems.zygos.ipis_per_req": "count",
    "systems.zygos.remote_batches_per_req": "count",
    "core.sched.local_cycle_ns": "ns",
    "core.sched.steal_cycle_ns": "ns",
    "cluster.submit_ns": "ns",
    "cluster.copies_per_req": "count",
    "cluster.useful_ratio": "ratio",
    "cluster.tor_peak": "count",
    "cluster.failovers_per_req": "count",
    "cluster.hedges_per_req": "count",
    "stats.tally.record_ns": "ns",
    "stats.tally.reduce_ms": "ms",
    "experiments.point_setup_ms": "ms",
    "experiments.tracing_overhead_frac": "frac",
    "experiments.failed_points_frac": "frac",
}

# Host times are reported at one reference speed: the speed at which
# Reference.ns_per_op (perfbench/src/reference.ml) takes REF_NS, about its
# fastest on the 2-vCPU machine the bounds were set on. Other load on a
# shared host slows the simulator and the reference loop alike, by a third
# or more for tens of seconds at a time; scaling each pass by REF_NS over
# its own reference time leaves what the code itself costs.
REF_NS = 140.0

TIMES = ("ns", "ms", "s")

LEDGER = ("total_ns", "engine_ns", "submit_ns", "complete_ns", "cluster_ns", "residual_ns")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the pass executable; False when the tree cannot build it."""
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
           "./perfbench/bin/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def one_pass(args, index, trace_out):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--pass", str(index)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    spawn_ns = time.monotonic_ns()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: pass {index} timed out")
        return None
    if r.returncode != 0:
        log(f"perfbench: pass {index} exited {r.returncode}: {r.stderr.strip()}")
        return None
    d = json.loads(r.stdout.strip().splitlines()[-1])
    d["setup_s"] = (d["first_timed_ns"] - spawn_ns) / 1e9
    return d


def speed(p):
    """Host-speed factor of a pass: REF_NS over the median of the
    reference loop's ns per operation, timed just before each of the
    pass's points."""
    return REF_NS / statistics.median(q["ref_ns"] for q in p["points"])


def per_req(points, key, label=None):
    pts = [q for q in points if label in (None, q["label"])]
    return sum(q[key] for q in pts) / sum(q["completed"] for q in pts)


def end_to_end(p):
    """End-to-end metrics of one pass, host times at reference speed."""
    pts, f = p["points"], speed(p)
    m = {f"host_ns_per_req.{lv}": per_req(pts, "host_ns", lv) * f
         for lv in ("low", "mid", "high")}
    m["host_ns_per_req"] = per_req(pts, "host_ns") * f
    m["minor_words_per_req"] = per_req(pts, "minor_words")
    m["peak_heap_mb"] = p["top_heap_words"] * 8 / 1e6
    m["setup_s"] = p["setup_s"] * f
    return m


def median_of(passes, f):
    return statistics.median(f(p) for p in passes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: cannot build the benchmark here (run from the repository root)")
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    passes, crashed = [], 0
    deadline = time.monotonic() + args.seconds
    index = 0
    while index < MIN_PASSES or time.monotonic() < deadline:
        trace_out = f"{stem}-spans.csv" if args.trace and index == 0 else None
        p = one_pass(args, index, trace_out)
        if p is None:
            crashed += 1
        else:
            passes.append(p)
        index += 1
    if not passes:
        log("perfbench: every pass failed")
        return 1
    with open(f"{stem}-passes.json", "w") as f:
        json.dump(passes, f)

    # A pass whose simulation differs from the first pass's, or whose
    # traced rebuild differs from its untraced run, fails all its points.
    digest = passes[0]["digest"]
    points_per_pass = passes[0]["attempted"]
    attempted = crashed * points_per_pass
    failed = crashed * points_per_pass
    for p in passes:
        attempted += p["attempted"]
        same = p["digest"] == digest and p["traced_digest"] in (None, p["digest"])
        failed += p["failed"] if same else p["attempted"]
        for msg in p["failures"]:
            log(f"perfbench: check failed: {msg}")
        if not same:
            log(f"perfbench: pass digest {p['digest']} differs from {digest}")

    # Metrics come from passes in which every point ran (and, traced,
    # was rebuilt); a point that raised is already counted as failed.
    good = [p for p in passes if len(p["points"]) == p["attempted"]
            and (not args.trace or len(p["ledger"]) == p["attempted"])]
    if not good:
        log("perfbench: no pass ran every point")
        return 1
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"failed points {failed}/{attempted}")
    print(f"sim_digest {args.workload} {digest}")
    for i, q in enumerate(good[0]["points"]):
        raw = [p["points"][i]["host_ns"] / q["completed"] for p in good]
        scaled = [r * speed(p) for r, p in zip(raw, good)]
        print(f"  {q['name']:<22} load {q['load']:<4} host_ns_per_req median "
              f"{statistics.median(scaled):9.1f} at reference speed, "
              f"{statistics.median(raw):9.1f} raw  n={len(raw)}")

    if args.trace:
        metrics = {k: median_of(good, lambda p, k=k: p["layers"][k]
                                * (speed(p) if PER_LAYER[k] in TIMES else 1))
                   for k in PER_LAYER if k != "experiments.failed_points_frac"}
        metrics["experiments.failed_points_frac"] = failed / attempted
        print("  ledger, ns per measured request at reference speed (median pass):")
        print(f"  {'point':<22}" + "".join(f"{k:>13}" for k in LEDGER))
        for i, q in enumerate(good[0]["ledger"]):
            by_total = sorted(good, key=lambda p: p["ledger"][i]["total_ns"] * speed(p))
            p = by_total[len(by_total) // 2]
            f = speed(p) / q["completed"]
            print(f"  {q['name']:<22}" + "".join(f"{p['ledger'][i][k] * f:13.1f}" for k in LEDGER))
        with open(f"{stem}-ledger.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "ref_ns": REF_NS,
                       "passes": [{"speed": speed(p), "ledger": p["ledger"], "layers": p["layers"]}
                                  for p in good]},
                      f, indent=1)
        units = PER_LAYER
    else:
        metrics = {k: median_of(good, lambda p, k=k: end_to_end(p)[k]) for k in END_TO_END}
        units = END_TO_END

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
