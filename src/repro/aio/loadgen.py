"""Closed-loop async load generator (YCSB-style) over real sockets.

The paper's serving experiments drive memcached with 8 closed-loop client
threads; this is the asyncio equivalent: ``concurrency`` workers, each
issuing one pipelined batch at a time against a live server and waiting
for the reply before sending the next (closed loop — offered load adapts
to service rate, so the numbers are honest under overload).

Key popularity, per-key cost, and value size all come from
:mod:`repro.workloads` (the paper's Table 2/3 distributions); latency is
recorded per batch into :class:`repro.obs.histogram.LatencyHistogram` so
the report has bounded-error p50/p95/p99 without keeping every sample.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.aio.client import AsyncStoreClient
from repro.obs.reporter import SnapshotReporter
from repro.obs.histogram import LatencyHistogram
from repro.workloads.ycsb import Workload


def _new_histogram() -> LatencyHistogram:
    # microseconds; 1e9 us = 1000 s ceiling is plenty for loopback
    return LatencyHistogram(max_value=1e9, sub_buckets=32)


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    operations: int
    batches: int
    duration_seconds: float
    get_hits: int
    get_misses: int
    sets: int
    errors: int
    retries: int
    #: batch round-trip latency in microseconds
    latency: LatencyHistogram = field(default_factory=_new_histogram)

    @property
    def throughput(self) -> float:
        """Operations per second (individual commands, not batches)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.operations / self.duration_seconds

    @property
    def hit_rate(self) -> float:
        gets = self.get_hits + self.get_misses
        return self.get_hits / gets if gets else 0.0

    def percentile_us(self, pct: float) -> float:
        return self.latency.percentile(pct)

    def format(self, title: str = "load report") -> str:
        lines = [
            f"== {title} ==",
            f"operations      {self.operations}",
            f"duration        {self.duration_seconds:.3f} s",
            f"throughput      {self.throughput:,.0f} ops/s",
            f"get hit rate    {self.hit_rate:.3f}"
            f" ({self.get_hits} hits / {self.get_misses} misses)",
            f"sets            {self.sets}",
            f"errors          {self.errors}   retries {self.retries}",
            "batch latency (us):",
            f"  mean {self.latency.mean:10.1f}",
            f"  p50  {self.percentile_us(50):10.1f}",
            f"  p95  {self.percentile_us(95):10.1f}",
            f"  p99  {self.percentile_us(99):10.1f}",
            f"  max  {self.latency.max:10.1f}",
        ]
        return "\n".join(lines)


async def run_closed_loop(
    host: str,
    port: int,
    workload: Workload,
    total_ops: int = 10_000,
    concurrency: int = 8,
    batch_size: int = 8,
    read_fraction: float = 0.95,
    warmup_keys: Optional[int] = None,
    set_on_miss: bool = True,
    timeout: float = 5.0,
    seed: int = 0,
    client: Optional[AsyncStoreClient] = None,
    reporter: Optional[SnapshotReporter] = None,
    report_interval: float = 1.0,
) -> LoadReport:
    """Drive a live server and measure throughput + latency percentiles.

    Args:
        workload: a materialized :class:`Workload`; supplies Zipf-sampled
            key ids plus each key's cost and value size.
        total_ops: total commands across all workers (approximate: rounded
            up to whole batches).
        concurrency: closed-loop workers (the paper uses 8 client threads).
        batch_size: commands pipelined per round trip.
        read_fraction: probability a slot is a GET (YCSB-B is 0.95).
        warmup_keys: SETs issued before timing starts (defaults to the
            whole key universe, like the paper's warmup phase).
        set_on_miss: cache-aside — a GET miss appends a SET of that key
            (with its workload cost) to the next batch.
        client: drive an existing client (e.g. one per-node pool member);
            when omitted a client with ``pool_size=concurrency`` is built
            and closed on exit.
        reporter: optional :class:`~repro.obs.reporter.SnapshotReporter`;
            while the timed phase runs, it emits a rate-per-second report
            every ``report_interval`` seconds (live server-side telemetry
            alongside the client-side closed-loop numbers).
    """
    if total_ops < 1:
        raise ValueError("total_ops must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    own_client = client is None
    if client is None:
        client = AsyncStoreClient(
            host, port, pool_size=concurrency, timeout=timeout,
        )

    # warmup: load keys so the timed phase measures a warm cache
    count = workload.num_keys if warmup_keys is None else warmup_keys
    order = workload.warmup_order(count=count, seed=seed + 99)
    for start in range(0, len(order), 64):
        chunk = order[start : start + 64]
        await client.set_many(
            [
                (workload.key_bytes(k), workload.value_of(k), workload.cost_of(k))
                for k in chunk
            ]
        )

    report = LoadReport(
        operations=0, batches=0, duration_seconds=0.0,
        get_hits=0, get_misses=0, sets=0, errors=0, retries=0,
    )
    ops_per_worker = -(-total_ops // concurrency)  # ceil
    batches_per_worker = -(-ops_per_worker // batch_size)  # ceil

    async def worker(worker_id: int):
        """One closed-loop worker; returns raw counters + latency array.

        The timed loop does no histogram bucketing and no attribute
        writes: per-batch latencies land in a preallocated list-backed
        array by index, counters are local ints, and ``perf_counter`` is
        bound once — the PR 5 sim-driver treatment, so the generator's
        own bookkeeping never under-reports server gains.  The histogram
        is filled in after the run, outside the timed window.
        """
        perf_counter = time.perf_counter  # bound: no attr lookup per batch
        rng = np.random.default_rng(seed * 1009 + worker_id)
        key_ids = workload.sample_requests(ops_per_worker)
        reads = rng.random(ops_per_worker) < read_fraction
        # preallocated per-batch arrays, indexed — never appended to —
        # inside the timed loop
        latencies = [0.0] * batches_per_worker
        operations = 0
        nbatches = 0
        get_hits = 0
        get_misses = 0
        sets = 0
        errors = 0
        pending_sets = []  # key ids missed last batch (cache-aside refill)
        issued = 0
        while issued < ops_per_worker:
            window = key_ids[issued : issued + batch_size]
            get_ids = []
            get_keys = []
            set_items = []
            for offset, key_id in enumerate(window):
                key_id = int(key_id)
                if reads[issued + offset]:
                    get_ids.append(key_id)
                    get_keys.append(workload.key_bytes(key_id))
                else:
                    set_items.append(key_id)
            issued += len(window)
            set_items.extend(pending_sets)
            pending_sets = []
            started = perf_counter()
            try:
                if get_keys:
                    found = await client.get_many(get_keys)
                    # per requested key: Zipf repeats count
                    missing = [
                        key_id
                        for key_id, key in zip(get_ids, get_keys)
                        if key not in found
                    ]
                    get_misses += len(missing)
                    get_hits += len(get_keys) - len(missing)
                if set_items:
                    stored = await client.set_many(
                        [
                            (
                                workload.key_bytes(k),
                                workload.value_of(k),
                                workload.cost_of(k),
                            )
                            for k in set_items
                        ]
                    )
                    sets += stored
                if set_on_miss and get_keys:
                    pending_sets = missing
            except (ConnectionError, OSError, asyncio.TimeoutError):
                errors += 1
                continue
            latencies[nbatches] = (perf_counter() - started) * 1e6
            operations += len(window)
            nbatches += 1
        return (
            operations, nbatches, get_hits, get_misses, sets, errors,
            latencies,
        )

    report_stop: Optional[asyncio.Event] = None
    report_task: Optional[asyncio.Task] = None
    if reporter is not None:
        report_stop = asyncio.Event()
        report_task = asyncio.create_task(
            reporter.run_async(
                interval=report_interval, stop=report_stop, title="loadgen"
            )
        )
    started = time.perf_counter()
    try:
        locals_ = await asyncio.gather(*(worker(i) for i in range(concurrency)))
    finally:
        if report_task is not None:
            report_stop.set()
            await report_task
    report.duration_seconds = time.perf_counter() - started
    # histogram bucketing happens here, after the clock stopped — the
    # timed loop only stamped raw floats into preallocated arrays
    record = report.latency.record
    for operations, nbatches, hits, misses, sets, errors, latencies in locals_:
        report.operations += operations
        report.batches += nbatches
        report.get_hits += hits
        report.get_misses += misses
        report.sets += sets
        report.errors += errors
        for index in range(nbatches):
            record(latencies[index])
    report.retries = client.request_retries + client.connect_retries
    if own_client:
        await client.aclose()
    return report


def run_closed_loop_sync(*args, **kwargs) -> LoadReport:
    """Blocking wrapper: run the load generator from sync code."""
    return asyncio.run(run_closed_loop(*args, **kwargs))
