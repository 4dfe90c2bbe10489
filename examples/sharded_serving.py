"""Sharded serving demo — and the CI smoke for ``repro.shard``.

Boots a 2-worker :class:`~repro.shard.ShardSupervisor` (each worker is a
full GD-Wheel store behind its own asyncio server in its own process),
drives a short mixed GET/SET workload through a routed pool, kills one
worker to show the respawn-on-same-port recovery path, then shuts the
fleet down and *asserts* nothing is left running — CI runs this file as
the shard smoke job.

Run with::

    PYTHONPATH=src python examples/sharded_serving.py
"""

import asyncio

from repro.aio.backoff import RetryPolicy
from repro.shard import ShardSupervisor

NUM_ITEMS = 400

#: wide enough to ride out a worker respawn (~0.5 s)
RETRY = RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=1.0)


async def mixed_workload(supervisor: ShardSupervisor) -> None:
    pool = supervisor.connect_pool(retry=RETRY)
    async with pool:
        items = [
            (b"user:%04d" % i, b"profile-%04d" % i, 10 + i % 90)
            for i in range(NUM_ITEMS)
        ]
        stored = await pool.multi_set(items)
        found = await pool.multi_get([key for key, _, _ in items])
        assert stored == NUM_ITEMS and len(found) == NUM_ITEMS
        assert await pool.delete(b"user:0000") is True
        print(f"mixed workload: stored {stored}, read back {len(found)}")

        per_shard = await pool.per_node_stats()
        for name in sorted(per_shard):
            stats = per_shard[name]
            print(
                f"  {name}: {stats['curr_items']} items, "
                f"{stats['get_hits']} hits (pid in its own process)"
            )

        # chaos: kill a worker mid-session.  The supervisor respawns it on
        # the SAME port, so the pooled client recovers by plain retry —
        # the cache contents die with the process, connectivity does not.
        victim = pool.group_for(b"user:0007")
        print(f"killing {victim} ...")
        supervisor.kill_worker(victim)
        assert await pool.get(b"user:0007") is None  # fresh, empty shard
        assert await pool.set(b"user:0007", b"rewritten", cost=10)
        assert await pool.get(b"user:0007") == b"rewritten"
        print(f"{victim} respawned on the same port; client retried through")


def main() -> None:
    with ShardSupervisor(
        num_shards=2,
        memory_limit=8 * 1024 * 1024,
        slab_size=64 * 1024,
        monitor_interval=0.1,
    ) as supervisor:
        endpoints = supervisor.endpoints()
        print(f"fleet up: {endpoints}")
        asyncio.run(mixed_workload(supervisor))
        aggregate = supervisor.aggregate_stats()
        print(
            f"aggregate: sets={aggregate['sets']} "
            f"get_hits={aggregate['get_hits']} curr_items={aggregate['curr_items']}"
        )
        handles = [handle.process for handle in supervisor._handles.values()]
    # the context manager SIGTERMs workers and joins them
    assert all(not process.is_alive() for process in handles), "workers leaked"
    print("clean shutdown: no live workers")


if __name__ == "__main__":
    main()
