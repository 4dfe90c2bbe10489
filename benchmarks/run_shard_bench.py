"""Shard-scaling benchmark: 1/2/4-shard throughput vs a single process.

Measures aggregate pipelined-GET throughput against a
:class:`repro.shard.ShardSupervisor` fleet at several shard counts and
writes the results (plus environment facts needed to interpret them) to
``BENCH_shard.json``.

Method
------
Every configuration is driven by the *same* fixed set of load-generator
processes (default 4), so the client side is held constant while the
server side scales.  Each driver process builds a
:class:`~repro.shard.ShardRouter` over the fleet's endpoints, opens one
routed :class:`~repro.aio.pool.AsyncStorePool`, and runs a closed loop of
pipelined ``multi_get`` batches over its own Zipf-sampled key stream.  A
``multiprocessing.Barrier`` releases all drivers at once; the parent
stamps the wall clock around the barrier release and the last driver
report, so aggregate throughput is honest under overload (closed loop:
offered load adapts to service rate).

The cache is warmed with the full key universe before timing, and each
shard gets the full per-shard memory limit, so the timed phase is ~100%
hits — this isolates *serving* scalability (the paper's Figure 8 axis)
from eviction behaviour, which is covered by the simulation benchmarks.

Interpretation on small machines
--------------------------------
Shared-nothing sharding buys throughput only when shards land on
distinct cores.  On a 1-CPU container, N worker processes time-slice one
core and N-shard throughput can only match (or slightly trail, from
scheduler churn) the single-process number.  The JSON therefore records
``environment.cpus``; ``tests``/CI assert the >=2.5x 4-shard speedup
only when at least 4 cores are actually available.

Run it::

    PYTHONPATH=src python benchmarks/run_shard_bench.py --out BENCH_shard.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from bench_env import (
    SCALING_UNVERIFIED,
    available_cpus,
    environment_facts,
    scaling_note,
    scaling_verifiable,
)
from repro.shard import ShardRouter, ShardSupervisor
from repro.obs.histogram import LatencyHistogram
from repro.workloads import SINGLE_SIZE_WORKLOADS

DEFAULT_SHARD_COUNTS = (1, 2, 4)
DEFAULT_DRIVERS = 4
DEFAULT_OPS_PER_DRIVER = 8_000
DEFAULT_BATCH = 16
DEFAULT_KEYS = 4_000
DEFAULT_WORKLOAD = "1"
#: generous per-shard budget so the warmed universe always fits (pure-GET
#: timed phase => ~100% hits; serving scalability, not eviction, is measured)
PER_SHARD_MEMORY = 32 * 1024 * 1024
SLAB_SIZE = 256 * 1024


def _driver_main(
    driver_id: int,
    endpoints: Dict[str, Tuple[str, int]],
    workload_id: str,
    num_keys: int,
    ops: int,
    batch: int,
    seed: int,
    barrier,
    queue,
) -> None:
    """One load-generator process: closed-loop routed GET batches.

    Keys are deterministic functions of the key id (seed-independent), so
    drivers share the warmed universe while sampling independent Zipf
    request streams (``seed`` differs per driver).
    """
    workload = SINGLE_SIZE_WORKLOADS[workload_id].materialize(num_keys, seed=seed)
    key_ids = workload.sample_requests(ops)
    keys: List[bytes] = [workload.key_bytes(int(k)) for k in key_ids]
    router = ShardRouter(endpoints)

    async def run() -> Dict[str, float]:
        perf_counter = time.perf_counter
        histogram = LatencyHistogram(max_value=1e9, sub_buckets=32)
        pool = router.connect_pool(pool_size=2)
        async with pool:
            # prime every connection before the barrier so the timed
            # phase measures serving, not TCP setup
            await pool.multi_get(keys[:batch])
            barrier.wait()
            hits = 0
            done = 0
            started = perf_counter()
            while done < ops:
                chunk = keys[done : done + batch]
                batch_start = perf_counter()
                found = await pool.multi_get(chunk)
                histogram.record((perf_counter() - batch_start) * 1e6)
                for key in chunk:  # per requested key: Zipf repeats count
                    if key in found:
                        hits += 1
                done += len(chunk)
            duration = perf_counter() - started
        return {
            "driver": driver_id,
            "operations": done,
            "hits": hits,
            "duration_seconds": duration,
            "histogram": histogram,
        }

    queue.put(asyncio.run(run()))


async def _warm(supervisor: ShardSupervisor, workload) -> None:
    pool = supervisor.connect_pool()
    async with pool:
        order = workload.warmup_order()
        for start in range(0, len(order), 64):
            chunk = order[start : start + 64]
            await pool.multi_set(
                [
                    (
                        workload.key_bytes(int(k)),
                        workload.value_of(int(k)),
                        workload.cost_of(int(k)),
                    )
                    for k in chunk
                ]
            )


def measure_config(
    shards: int,
    drivers: int = DEFAULT_DRIVERS,
    ops_per_driver: int = DEFAULT_OPS_PER_DRIVER,
    batch: int = DEFAULT_BATCH,
    num_keys: int = DEFAULT_KEYS,
    workload_id: str = DEFAULT_WORKLOAD,
    seed: int = 11,
) -> Dict[str, object]:
    """Throughput + tail latency for one shard count (real processes)."""
    workload = SINGLE_SIZE_WORKLOADS[workload_id].materialize(num_keys, seed=seed)
    with ShardSupervisor(
        num_shards=shards,
        memory_limit=PER_SHARD_MEMORY,
        slab_size=SLAB_SIZE,
    ) as supervisor:
        asyncio.run(_warm(supervisor, workload))
        endpoints = supervisor.endpoints()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        barrier = ctx.Barrier(drivers + 1)
        queue = ctx.Queue()
        processes = [
            ctx.Process(
                target=_driver_main,
                args=(
                    i, endpoints, workload_id, num_keys, ops_per_driver,
                    batch, seed * 1000 + i, barrier, queue,
                ),
                daemon=True,
            )
            for i in range(drivers)
        ]
        for process in processes:
            process.start()
        barrier.wait()  # all drivers primed: release and start the clock
        started = time.perf_counter()
        reports = [queue.get() for _ in range(drivers)]
        wall = time.perf_counter() - started
        for process in processes:
            process.join(timeout=30)

    merged = LatencyHistogram(max_value=1e9, sub_buckets=32)
    total_ops = 0
    total_hits = 0
    for report in reports:
        merged.merge(report["histogram"])
        total_ops += report["operations"]
        total_hits += report["hits"]
    return {
        "shards": shards,
        "drivers": drivers,
        "operations": total_ops,
        "wall_seconds": round(wall, 4),
        "ops_per_sec": round(total_ops / wall, 1) if wall > 0 else 0.0,
        "hit_rate": round(total_hits / total_ops, 4) if total_ops else 0.0,
        "batch_latency_us": {
            "mean": round(merged.mean, 1),
            "p50": round(merged.percentile(50), 1),
            "p95": round(merged.percentile(95), 1),
            "p99": round(merged.percentile(99), 1),
        },
        "per_driver_ops_per_sec": [
            round(r["operations"] / r["duration_seconds"], 1)
            for r in sorted(reports, key=lambda r: r["driver"])
        ],
    }


def run_shard_scaling(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    drivers: int = DEFAULT_DRIVERS,
    ops_per_driver: int = DEFAULT_OPS_PER_DRIVER,
    batch: int = DEFAULT_BATCH,
    num_keys: int = DEFAULT_KEYS,
    workload_id: str = DEFAULT_WORKLOAD,
) -> Dict[str, object]:
    """Measure every shard count and assemble the BENCH_shard document."""
    cpus = available_cpus()
    results = []
    for shards in shard_counts:
        result = measure_config(
            shards,
            drivers=drivers,
            ops_per_driver=ops_per_driver,
            batch=batch,
            num_keys=num_keys,
            workload_id=workload_id,
        )
        results.append(result)
        print(
            f"shards={shards}: {result['ops_per_sec']:,.0f} ops/s "
            f"(p99 {result['batch_latency_us']['p99']:,.0f} us/batch)",
            file=sys.stderr,
        )
    verifiable = scaling_verifiable(cpus, max(shard_counts))
    if verifiable:
        baseline = results[0]["ops_per_sec"] or 1.0
        for result in results:
            result["speedup_vs_single"] = round(
                result["ops_per_sec"] / baseline, 3
            )
    document: Dict[str, object] = {
        "benchmark": "shard_scaling",
        "generated_unix": int(time.time()),
        "environment": environment_facts(),
        "config": {
            "workload": workload_id,
            "num_keys": num_keys,
            "drivers": drivers,
            "ops_per_driver": ops_per_driver,
            "batch": batch,
            "per_shard_memory_bytes": PER_SHARD_MEMORY,
            "read_fraction": 1.0,
        },
        "results": results,
    }
    if not verifiable:
        # refuse to stamp a speedup the machine cannot express: raw
        # per-config throughput stays, the scaling *claim* does not
        document["scaling"] = SCALING_UNVERIFIED
    note = scaling_note(cpus, max(shard_counts), "shard processes")
    if note is not None:
        document["note"] = note
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_shard.json",
                        help="output JSON path (default: ./BENCH_shard.json)")
    parser.add_argument("--shards", type=int, nargs="+",
                        default=list(DEFAULT_SHARD_COUNTS))
    parser.add_argument("--drivers", type=int, default=DEFAULT_DRIVERS)
    parser.add_argument("--ops-per-driver", type=int,
                        default=DEFAULT_OPS_PER_DRIVER)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        choices=sorted(SINGLE_SIZE_WORKLOADS))
    args = parser.parse_args(argv)
    document = run_shard_scaling(
        shard_counts=tuple(args.shards),
        drivers=args.drivers,
        ops_per_driver=args.ops_per_driver,
        batch=args.batch,
        num_keys=args.keys,
        workload_id=args.workload,
    )
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
