"""ShardSupervisor integration tests: real worker processes over loopback.

Kept deliberately small (2 shards, short workloads) so the suite stays
tier-1-fast while still exercising the real process lifecycle: spawn,
serve, aggregate, kill, respawn, and clean shutdown.
"""

import asyncio

import pytest

from repro.aio.backoff import NO_RETRY, RetryPolicy
from repro.protocol.client import CostAwareClient
from repro.replica import HybridLogicalClock, QuorumWriteError
from repro.resilience import BreakerOpenError, BreakerPolicy
from repro.shard import ShardConfig, ShardSupervisor


@pytest.fixture(scope="module")
def supervisor():
    with ShardSupervisor(
        num_shards=2,
        memory_limit=8 * 1024 * 1024,
        slab_size=64 * 1024,
        monitor_interval=0.1,
    ) as sup:
        yield sup


#: retry schedule wide enough to ride out a worker respawn (~0.5 s)
RESPAWN_RETRY = RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=1.0)


def test_config_rejects_unknown_policy():
    with pytest.raises(ValueError):
        ShardConfig(name="s", policy="no-such-policy")


def test_workers_come_up_with_stable_names(supervisor):
    endpoints = supervisor.endpoints()
    assert sorted(endpoints) == ["shard-0", "shard-1"]
    ports = {port for _, port in endpoints.values()}
    assert len(ports) == 2  # distinct listeners
    assert all(supervisor.alive().values())


def test_mixed_workload_round_trips_and_aggregates(supervisor):
    async def main():
        pool = supervisor.connect_pool()
        async with pool:
            stored = await pool.multi_set(
                [(b"mix-%d" % i, b"value-%d" % i, i % 9) for i in range(120)]
            )
            assert stored == 120
            found = await pool.multi_get([b"mix-%d" % i for i in range(120)])
            assert found == {
                b"mix-%d" % i: b"value-%d" % i for i in range(120)
            }
            assert await pool.delete(b"mix-0") is True
            assert await pool.get(b"mix-0") is None
            # both shards took part of the key space
            sizes = await pool.per_node_stats()
            assert all(int(s["curr_items"]) > 0 for s in sizes.values())

    asyncio.run(main())
    aggregate = supervisor.aggregate_stats()
    assert aggregate["sets"] >= 120
    assert aggregate["curr_items"] >= 119


def test_kill_respawn_preserves_endpoint_and_routing(supervisor):
    router_before = supervisor.router()
    keys = [b"route-%d" % i for i in range(200)]
    assignment_before = {key: router_before.group_for(key) for key in keys}
    endpoint_before = supervisor.endpoints()["shard-0"]

    supervisor.kill_worker("shard-0")
    assert supervisor.wait_for_respawn("shard-0", timeout=20)

    # same endpoint, same names => identical assignment for every client
    assert supervisor.endpoints()["shard-0"] == endpoint_before
    router_after = supervisor.router()
    assert {key: router_after.group_for(key) for key in keys} == assignment_before
    assert supervisor.restarts()["shard-0"] >= 1


def test_client_retry_rides_out_a_worker_kill(supervisor):
    """The PR 1 backoff path is the whole failover story: kill a worker,
    and an in-flight client recovers by retrying against the respawned
    listener on the same port."""

    async def main():
        pool = supervisor.connect_pool(retry=RESPAWN_RETRY)
        async with pool:
            # find a key owned by shard-1 and park some data there
            key = next(
                k
                for k in (b"failover-%d" % i for i in range(100))
                if pool.group_for(k) == "shard-1"
            )
            assert await pool.set(key, b"survives", cost=3)
            supervisor.kill_worker("shard-1")
            # the store died with its cache; retry must reach the NEW
            # process (data is gone, connectivity is not)
            assert await pool.get(key) is None
            assert await pool.set(key, b"rewritten")
            assert await pool.get(key) == b"rewritten"

    asyncio.run(main())
    assert supervisor.wait_for_respawn("shard-1", timeout=20)


def test_clean_shutdown_leaves_no_live_workers():
    with ShardSupervisor(
        num_shards=2, memory_limit=4 * 1024 * 1024, slab_size=64 * 1024
    ) as sup:
        pids = sup.pids()
        assert all(pid is not None for pid in pids.values())
        processes = [h.process for h in sup._handles.values()]
    assert all(not p.is_alive() for p in processes)


def test_r1_pool_adds_nothing_on_the_wire():
    """At R=1 the pool is the member's client: a SET carries no version,
    the pool's clock never ticks, no fan-out task outlives the call, and
    a dead member's own error comes out — never a QuorumWriteError."""
    with ShardSupervisor(
        num_shards=1, memory_limit=4 * 1024 * 1024, slab_size=64 * 1024,
        respawn=False, monitor_interval=0.05,
    ) as sup:
        (name, (host, port)), = sup.endpoints().items()

        class CountingClock(HybridLogicalClock):
            ticks = 0

            def tick(self):
                CountingClock.ticks += 1
                return super().tick()

        async def write():
            async with sup.connect_pool(hlc=CountingClock()) as pool:
                assert await pool.set(b"plain", b"v", cost=4)
                assert await pool.multi_set([(b"batch", b"w", 2)]) == 1
                assert CountingClock.ticks == 0
                assert not pool._pending
                assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(write())
        client = CostAwareClient.tcp(host, port)
        try:
            entries = {e[0]: e for e in client.key_entries(0, 1).entries}
        finally:
            client.close()
        assert entries[b"plain"][1:3] == (0, 4)  # no version, cost kept
        assert entries[b"batch"][1:3] == (0, 2)

        sup.kill_worker(name)
        sup._handles[name].process.join(timeout=5)

        async def write_to_dead_member():
            async with sup.connect_pool(
                retry=NO_RETRY,
                breaker_policy=BreakerPolicy(
                    failure_threshold=1, recovery_time=60.0
                ),
            ) as pool:
                with pytest.raises(ConnectionError) as first:
                    await pool.set(b"plain", b"v")
                assert not isinstance(first.value, QuorumWriteError)
                with pytest.raises(BreakerOpenError):
                    await pool.set(b"plain", b"v")

        asyncio.run(write_to_dead_member())
