#!/usr/bin/env python
"""A distributed cost-aware cache: consistent hashing over GD-Wheel stores.

Demonstrates the paper's introduction in miniature — "combining the
distributed memory of different machines into a single, large pool" — and
its Section 2.2 argument against Facebook-style static pool partitioning:

1. builds a 4-node pool of GD-Wheel stores behind a ketama ring;
2. runs a Zipf workload with the paper's baseline cost mix;
3. scales the pool out by one node mid-run and shows how little of the
   key space remaps;
4. replays the same load against statically cost-partitioned LRU pools of
   the same total memory, and compares total recomputation cost after the
   workload mix shifts.

Run: ``python examples/distributed_pool.py``
"""

from __future__ import annotations

from repro.cluster import make_uniform_pool, pooling_report, run_pooling_comparison
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.workloads import SINGLE_SIZE_WORKLOADS, Trace


def cache_aside(pool, workload, trace):
    hits = cost = 0
    for key_id, key_cost, _size in trace:
        key = workload.key_bytes(key_id)
        if pool.get(key) is not None:
            hits += 1
        else:
            cost += key_cost
            pool.set(key, workload.value_of(key_id), cost=key_cost)
    return hits / len(trace), cost


def main() -> None:
    # --- 1+2: a 4-node cost-aware pool under Zipf load --------------------
    pool = make_uniform_pool(4, 512 * 1024, GDWheelPolicy)
    workload = SINGLE_SIZE_WORKLOADS["1"].materialize(20_000, seed=9)
    trace = Trace.from_workload(workload, 60_000)
    hit_rate, cost = cache_aside(pool, workload, trace)
    print(f"4-node GD-Wheel pool: hit rate {hit_rate * 100:.1f}%, "
          f"recomputation cost {cost:,}")
    for name, store in sorted(pool.stores.items()):
        print(f"   {name}: {len(store):,} items, "
              f"{store.stats.evictions:,} evictions")

    # --- 3: scale out ------------------------------------------------------
    keys = [workload.key_bytes(i) for i in range(0, 20_000, 7)]
    before = {key: pool.store_for(key) for key in keys}
    pool.add_store(
        "node4",
        KVStore(memory_limit=512 * 1024, slab_size=64 * 1024,
                policy_factory=GDWheelPolicy),
    )
    moved = sum(1 for key in keys if pool.store_for(key) is not before[key])
    print(f"\nscale-out to 5 nodes: {moved / len(keys) * 100:.1f}% of keys "
          f"remapped (ideal: 20.0%)")

    # --- 4: the Section 2.2 pooling comparison -----------------------------
    print("\nstatic cost-partitioned pools vs one cost-aware pool "
          "(same memory, mix shift):\n")
    print(pooling_report(run_pooling_comparison(num_requests=40_000)))


if __name__ == "__main__":
    main()
