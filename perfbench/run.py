#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --workload hot-get --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the traced run that gives the per-layer metrics (see NOTES.md).  The
report lists every metric with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any returned
value was wrong or the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("hot-get", "evict-churn", "replica-write", "tier-spill")

#: end-to-end metrics every workload reports (BENCHMARK.json "end_to_end")
END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "hit_rate": "ratio",
    "rss_mb": "MiB",
}

#: per-layer metrics of the traced run (BENCHMARK.json "per_layer")
PER_LAYER = {
    "core.insert_us": "us",
    "core.touch_us": "us",
    "core.select_victim_us": "us",
    "core.evictions_per_set": "ratio",
    "core.migrations_per_eviction": "ratio",
    "kvstore.get_us": "us",
    "kvstore.set_us": "us",
    "sim.driver_self_us": "us",
    "protocol.get_us": "us",
    "protocol.set_us": "us",
    "protocol.bytes_per_op": "bytes",
    "aio.get_us": "us",
    "aio.set_us": "us",
    "aio.self_us": "us",
    "aio.retries": "count",
    "aio.write_pauses": "count",
    "pool.route_us": "us",
    "replica.set_us": "us",
    "replica.fanout_self_us": "us",
    "replica.read_failovers": "count",
    "tier.spill_us": "us",
    "tier.lookup_us": "us",
    "tier.hit_ratio": "ratio",
    "tier.gc_bytes": "bytes",
    "gen.lag_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: seconds each probe spends measuring one rung (outside --seconds)
PROBE_S = 0.6
MIN_PROBE_SET_SHARE = 0.05
#: |trace.unattributed_pct| within which layer self-times reconcile
RECONCILE_SLACK_PCT = 25.0
#: scratch space inside the checkout; listed in .gitignore
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fill_probes(res, plan, workdir: str, seed: int) -> None:
    """Measure the rungs this workload's traffic did not cross."""
    import inproc
    import layers
    import serving

    spec = res.probe
    universe = spec["universe"]
    # the workload's mix, with enough SETs that every SET rung is measured
    set_share = max(spec["set_share"], MIN_PROBE_SET_SHARE)
    ops = universe.ops(50_000, set_share)
    missing = {name for name in PER_LAYER if res.layers.get(name) is None}
    res.info["probed"] = sorted(missing - {"aio.self_us"})

    def take(values) -> None:
        for name, value in values.items():
            if name in missing or (name == "aio_calls" and "aio.get_us" in missing):
                res.layers[name] = value

    if any(name.startswith(("core.", "kvstore.")) for name in missing):
        # half the universe fits, so the eviction rung runs too
        take(layers.probe_store(universe, ops, universe.item_bytes() // 2, PROBE_S))
    # no workload's own traffic calls the protocol engine in process
    take(layers.probe_protocol(universe, ops, spec["memory"], PROBE_S))
    if any(name.startswith("tier.") for name in missing):
        ram, flash = inproc.tier_geometry(universe)
        take(layers.probe_tier(universe, ops, ram, flash,
                               os.path.join(workdir, "tier-probe"), PROBE_S))
    if "sim.driver_self_us" in missing:
        take(inproc.probe_sim(spec["sim_spec"], seed))
    if any(name.startswith(("aio.", "pool.", "replica.", "gen.")) and name != "aio.self_us"
           for name in missing):
        take(serving.probe_network(universe, set_share, plan, 3 * PROBE_S, seed))
    n_get, n_set = res.layers.pop("aio_calls")
    res.layers["aio.self_us"] = (
        n_get * (res.layers["aio.get_us"] - res.layers["protocol.get_us"])
        + n_set * (res.layers["aio.set_us"] - res.layers["protocol.set_us"])
    ) / (n_get + n_set)


def report(res, args, plan, elapsed: float) -> None:
    stamp = plan.stamp()
    print(f"perfbench {res.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={elapsed:.1f}s cpus={stamp['cpus']} "
          f"pinning={json.dumps(stamp['pinning'])} "
          f"scaling_unverified={str(stamp['scaling_unverified']).lower()}")
    print("end-to-end:")
    for name, metric in res.metrics.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        n = "" if metric["n"] is None else f"n={metric['n']}"
        note = f"  {metric['note']}" if metric["note"] else ""
        print(f"  {name:<20} {shown:>12} {metric['unit']:<6} {n:<10}{note}")
    if res.layers:
        print("per-layer (traced run):")
        probed = set(res.info.get("probed", ()))
        for name in PER_LAYER:
            value = res.layers.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            source = ("derived" if name == "aio.self_us"
                      else "probe" if name in probed else "traffic")
            print(f"  {name:<30} {shown:>12} {PER_LAYER[name]:<6} {source}")
        unattributed = res.layers.get("trace.unattributed_pct")
        if unattributed is not None:
            verdict = "ok" if abs(unattributed) <= RECONCILE_SLACK_PCT else "OUTSIDE SLACK"
            print(f"  reconciliation: {unattributed:.2f}% unattributed, "
                  f"slack {RECONCILE_SLACK_PCT:g}% -> {verdict}")
    for key, value in res.info.items():
        if key != "probed":
            print(f"  info {key}: {json.dumps(value)}")
    print(f"ops attempted={res.attempted} failed={res.failed}")
    if res.correct:
        print("correctness: ok")
    else:
        for problem in res.problems:
            print(f"correctness: FAILED: {problem}")


def result_line(res, trace: bool) -> str:
    metrics = {}
    names, values = (PER_LAYER, res.layers) if trace else (END_TO_END, {
        name: metric["value"] for name, metric in res.metrics.items()
    })
    for name, unit in names.items():
        if values.get(name) is None:
            raise RuntimeError(f"{res.workload} measured no value for {name}")
        metrics[name] = {"value": float(values[name]), "unit": unit}
    return json.dumps({
        "correct": res.correct,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inproc
    import measure
    import serving

    runners = {
        "hot-get": serving.hot_get,
        "evict-churn": inproc.evict_churn,
        "replica-write": serving.replica_write,
        "tier-spill": inproc.tier_spill,
    }
    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    plan = measure.CpuPlan()
    try:
        res = runners[args.workload](args.seed, args.seconds, bool(args.trace), plan, workdir)
        if args.trace:
            fill_probes(res, plan, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and res.spans is not None:
        res.spans.dump(os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    report(res, args, plan, time.perf_counter() - started)
    print(result_line(res, bool(args.trace)))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
