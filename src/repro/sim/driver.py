"""The warmup + measurement driver — the reproduction's YCSB client loop.

One :func:`run_simulation` call is one of the paper's experiment cells:
build the store with a chosen replacement policy and rebalancer, load the
key universe (warmup phase, uncounted), then issue Zipf-distributed GETs;
every miss recomputes (accrues the key's cost) and SETs the value back with
its cost attached — the cache-aside loop of Figure 1 (Section 6.2).

The universe size is calibrated so that *LRU* sees roughly a 95% hit rate,
mirroring the paper's warmup control and Facebook's ~5% capacity-miss rate;
all policies then run with the identical universe, costs, and request
stream for a fair comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core import (
    CAMPPolicy,
    ClockPolicy,
    GDPQPolicy,
    GDSFPolicy,
    GDSPolicy,
    GDWheelPolicy,
    LRUKPolicy,
    LRUPolicy,
    NaiveGreedyDual,
    RandomPolicy,
    ReplacementPolicy,
)
from repro.kvstore import (
    CostAwareRebalancer,
    ITEM_HEADER_SIZE,
    KVStore,
    NullRebalancer,
    OriginalRebalancer,
    Rebalancer,
    SimClock,
)
from repro.obs.reporter import diff_snapshots
from repro.sim.calibrate import calibrate_num_keys, capacity_items_for
from repro.sim.metrics import RequestLog
from repro.sim.results import SimResult
from repro.workloads.ycsb import Workload, WorkloadSpec

#: Mean service time per request on the simulated clock; 50k req/s is the
#: order of magnitude Atikoglu et al. report for Facebook's general pool.
DEFAULT_REQUEST_INTERVAL_S = 1.0 / 50_000

#: The paper's measurement phase spans about 30 minutes of wall time, i.e.
#: ~180 ten-second rebalancer checks; the original rebalancer's cadence is
#: scaled so the checks-per-request ratio is preserved at simulation scale.
PAPER_REBALANCER_CHECKS = 180


@dataclass
class SimConfig:
    """Parameters of one simulation run."""

    spec: WorkloadSpec
    policy: str = "lru"
    rebalancer: str = "none"
    memory_limit: int = 32 * 1024 * 1024
    slab_size: int = 64 * 1024
    num_requests: int = 300_000
    #: key-universe size; None = calibrate for ``target_hit_rate`` under LRU
    num_keys: Optional[int] = None
    target_hit_rate: float = 0.95
    seed: int = 0
    request_interval_s: float = DEFAULT_REQUEST_INTERVAL_S
    policy_kwargs: Dict = field(default_factory=dict)
    rebalancer_kwargs: Dict = field(default_factory=dict)
    #: flash-tier capacity in bytes; 0 (the default) = no tier, and the
    #: request loop stays on the PR 5 single-tier hot path
    tier_bytes: int = 0
    tier_segment_bytes: int = 64 * 1024
    #: tier directory; None = a temporary directory deleted after the run
    tier_dir: Optional[str] = None


def make_policy_factory(
    name: str, capacity_items: int, max_cost: int, **kwargs
) -> Callable[[], ReplacementPolicy]:
    """Per-slab-class policy factory for the driver's policy names."""
    if name == "lru":
        return lambda: LRUPolicy(**kwargs)
    if name == "clock":
        return lambda: ClockPolicy(**kwargs)
    if name == "random":
        return lambda: RandomPolicy(**kwargs)
    if name == "gd-wheel":
        options = {"num_queues": 256, "num_wheels": 2}
        options.update(kwargs)
        wheel_capacity = options["num_queues"] ** options["num_wheels"] - 1
        if max_cost > wheel_capacity:
            raise ValueError(
                f"workload max cost {max_cost} exceeds wheel capacity "
                f"{wheel_capacity}; widen num_queues/num_wheels"
            )
        return lambda: GDWheelPolicy(**options)
    if name == "gd-pq":
        return lambda: GDPQPolicy(**kwargs)
    if name == "gd-naive":
        return lambda: NaiveGreedyDual(**kwargs)
    if name == "gds":
        return lambda: GDSPolicy(**kwargs)
    if name == "gdsf":
        return lambda: GDSFPolicy(**kwargs)
    if name == "camp":
        return lambda: CAMPPolicy(**kwargs)
    if name == "lru-k":
        return lambda: LRUKPolicy(**kwargs)
    if name == "2q":
        from repro.core import TwoQPolicy

        return lambda: TwoQPolicy(capacity=max(capacity_items, 1), **kwargs)
    if name == "arc":
        from repro.core import ARCPolicy

        return lambda: ARCPolicy(capacity=max(capacity_items, 1), **kwargs)
    raise ValueError(f"unknown policy {name!r}")


def make_rebalancer(name: str, measurement_seconds: float, **kwargs) -> Rebalancer:
    if name == "none":
        return NullRebalancer()
    if name == "original":
        options = {"check_interval": measurement_seconds / PAPER_REBALANCER_CHECKS}
        options.update(kwargs)
        return OriginalRebalancer(**options)
    if name == "cost-aware":
        return CostAwareRebalancer(**kwargs)
    raise ValueError(f"unknown rebalancer {name!r}")


def estimate_capacity_items(config: SimConfig, workload_probe: Workload) -> int:
    """Items the store can hold, given the workload's footprint mix.

    Exact for single-size workloads (one slab class); for multi-size
    workloads it uses the mix-weighted chunk size, which is accurate enough
    for warmup calibration.
    """
    from repro.kvstore.slab import SlabAllocator

    allocator = SlabAllocator(
        memory_limit=config.memory_limit, slab_size=config.slab_size
    )
    sizes = workload_probe.value_sizes
    import numpy as np

    unique, counts = np.unique(sizes, return_counts=True)
    total_weight = counts.sum()
    inv_chunk = 0.0
    for size, count in zip(unique, counts):
        footprint = ITEM_HEADER_SIZE + config.spec.key_size + int(size)
        chunk = allocator.class_for_size(footprint).chunk_size
        inv_chunk += (count / total_weight) / chunk
    avg_chunk = 1.0 / inv_chunk
    slabs = config.memory_limit // config.slab_size
    return int(slabs * config.slab_size / avg_chunk)


def resolve_num_keys(config: SimConfig) -> int:
    """The configured universe size, calibrating if unset."""
    if config.num_keys is not None:
        return config.num_keys
    probe = config.spec.materialize(num_keys=1024, seed=config.seed)
    capacity = estimate_capacity_items(config, probe)
    return calibrate_num_keys(
        capacity_items=capacity,
        theta=config.spec.theta,
        target_hit_rate=config.target_hit_rate,
    )


def run_simulation(config: SimConfig) -> SimResult:
    """Warmup, measure, and summarize one experiment cell.

    The request loop is batched: key ids are pre-sampled in one vectorized
    draw, and key bytes / costs / values are consumed from per-key tables
    materialized by the :class:`~repro.workloads.ycsb.Workload`, so each
    request costs a few list indexes plus the store call itself — no
    per-request method dispatch, numpy scalar conversion, or string
    formatting.  With no time-triggered machinery installed (no rebalancer
    cadence to honour, and the driver never sets expiries), the simulated
    clock is advanced once per run instead of once per request; results
    are byte-identical either way, which
    ``benchmarks/run_sim_bench.py`` asserts against the frozen copy of
    the per-request loop.
    """
    started = time.perf_counter()
    num_keys = resolve_num_keys(config)
    workload = config.spec.materialize(num_keys=num_keys, seed=config.seed)
    probe_capacity = estimate_capacity_items(config, workload)

    clock = SimClock()
    measurement_seconds = config.num_requests * config.request_interval_s
    policy_factory = make_policy_factory(
        config.policy, probe_capacity, workload.max_cost(), **config.policy_kwargs
    )
    rebalancer = make_rebalancer(
        config.rebalancer, measurement_seconds, **config.rebalancer_kwargs
    )
    tier = None
    tier_tmpdir = None
    if config.tier_bytes > 0:
        import tempfile

        from repro.tier import FlashTier, TierConfig

        tier_path = config.tier_dir
        if tier_path is None:
            tier_tmpdir = tempfile.TemporaryDirectory(prefix="repro-tier-")
            tier_path = tier_tmpdir.name
        tier = FlashTier(
            tier_path,
            TierConfig(
                capacity_bytes=config.tier_bytes,
                segment_bytes=config.tier_segment_bytes,
            ),
            clock=clock,
        )
    store = KVStore(
        memory_limit=config.memory_limit,
        policy_factory=policy_factory,
        rebalancer=rebalancer,
        slab_size=config.slab_size,
        clock=clock,
        tier=tier,
    )

    dt = config.request_interval_s
    keys = workload.key_list()
    costs = workload.cost_list()
    values = workload.value_list()
    # Only a time-triggered rebalancer observes *when* the clock moves; the
    # driver stores nothing with an expiry, so under the NullRebalancer the
    # clock can advance in one batched step per phase without changing a
    # single eviction decision or reported stat.
    stepwise_clock = type(rebalancer) is not NullRebalancer
    advance = clock.advance
    get = store.get
    set_ = store.set

    # --- warmup phase: load the whole universe in seeded random order ----------
    warmup_ids = workload.warmup_order(seed=config.seed + 101).tolist()
    if stepwise_clock:
        for key_id in warmup_ids:
            advance(dt)
            set_(keys[key_id], values[key_id], cost=costs[key_id])
    else:
        for key_id in warmup_ids:
            set_(keys[key_id], values[key_id], cost=costs[key_id])
        advance(dt * len(warmup_ids))

    # Warmup cold misses and eviction churn are excluded from the reported
    # store stats, as in the paper; diff against this snapshot at the end.
    warmup_stats = store.stats.snapshot()

    # --- measurement phase: Zipf GETs; miss -> recompute + SET ----------------
    request_ids = workload.sample_requests(config.num_requests).tolist()
    miss_costs: list = []
    record_miss = miss_costs.append
    if stepwise_clock:
        for key_id in request_ids:
            advance(dt)
            key = keys[key_id]
            if get(key) is None:
                cost = costs[key_id]
                record_miss(cost)
                set_(key, values[key_id], cost=cost)
    else:
        for key_id in request_ids:
            key = keys[key_id]
            if get(key) is None:
                cost = costs[key_id]
                record_miss(cost)
                set_(key, values[key_id], cost=cost)
        advance(dt * len(request_ids))
    log = RequestLog.from_misses(config.num_requests, miss_costs)

    store.check_invariants()
    tier_stats: Dict = {}
    if tier is not None:
        tier_stats = tier.snapshot()
        tier.close()
        if tier_tmpdir is not None:
            tier_tmpdir.cleanup()
    # one snapshot-diff code path for the whole repo (repro.obs.reporter)
    measured_stats = diff_snapshots(warmup_stats, store.stats.snapshot())
    return SimResult(
        workload_id=config.spec.workload_id,
        workload_name=config.spec.name,
        policy=config.policy,
        rebalancer=config.rebalancer,
        num_keys=num_keys,
        num_requests=config.num_requests,
        capacity_items=probe_capacity,
        hit_rate=log.hit_rate,
        total_recomputation_cost=log.total_recomputation_cost,
        average_latency_us=log.average_latency_us(),
        p99_latency_us=log.percentile_latency_us(99.0),
        miss_costs=log.miss_costs(),
        store_stats=measured_stats,
        class_stats=[vars(cs) for cs in store.class_stats()],
        wall_seconds=time.perf_counter() - started,
        tier_stats=tier_stats,
    )
