"""AsyncStorePool: routing, scatter/gather, fleet stats."""

import asyncio
import contextlib

import pytest

from repro.aio import AsyncStoreClient, AsyncStorePool, AsyncTCPStoreServer
from repro.aio.backoff import NO_RETRY
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore


def fresh_store():
    return KVStore(
        memory_limit=1024 * 1024, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


@contextlib.asynccontextmanager
async def three_node_pool():
    servers = {}
    stores = {}
    for i in range(3):
        name = f"node{i}"
        stores[name] = fresh_store()
        server = AsyncTCPStoreServer(stores[name])
        await server.start()
        servers[name] = server
    clients = {
        name: AsyncStoreClient(*server.address, pool_size=2)
        for name, server in servers.items()
    }
    pool = AsyncStorePool(clients)
    try:
        yield pool, stores, servers
    finally:
        await pool.aclose()
        for server in servers.values():
            await server.stop()


def run(coro):
    return asyncio.run(coro)


class TestAsyncStorePool:
    def test_requires_a_client(self):
        import pytest

        with pytest.raises(ValueError):
            AsyncStorePool({})

    def test_routed_single_key_ops(self):
        async def main():
            async with three_node_pool() as (pool, stores, _):
                assert await pool.set(b"k", b"v", cost=5)
                assert await pool.get(b"k") == b"v"
                assert await pool.delete(b"k") is True
                assert await pool.get(b"k") is None
                # the key lived on exactly the ring-owned store
                owner = pool.group_for(b"k")
                assert pool.node_ops[owner] >= 4

        run(main())

    def test_multi_set_multi_get_scatter_gather(self):
        async def main():
            async with three_node_pool() as (pool, stores, _):
                items = [(b"key-%d" % i, b"val-%d" % i, i % 10) for i in range(90)]
                assert await pool.multi_set(items) == 90
                # keys actually spread across every store
                sizes = {name: len(store) for name, store in stores.items()}
                assert sum(sizes.values()) == 90
                assert all(size > 0 for size in sizes.values())
                found = await pool.multi_get(
                    [k for k, _, _ in items] + [b"absent-x", b"absent-y"]
                )
                assert found == {b"key-%d" % i: b"val-%d" % i for i in range(90)}

        run(main())

    def test_multi_get_routing_matches_ring(self):
        async def main():
            async with three_node_pool() as (pool, stores, _):
                keys = [b"key-%d" % i for i in range(60)]
                grouped = pool.group_keys(keys)
                assert sum(len(v) for v in grouped.values()) == 60
                await pool.multi_set([(k, b"v", 0) for k in keys])
                for node, node_keys in grouped.items():
                    for key in node_keys:
                        assert stores[node].get(key) is not None

        run(main())

    def test_aggregate_and_per_node_stats(self):
        async def main():
            async with three_node_pool() as (pool, stores, _):
                await pool.multi_set([(b"key-%d" % i, b"v", 0) for i in range(30)])
                await pool.multi_get([b"key-%d" % i for i in range(30)])
                totals = await pool.aggregate_stats()
                assert totals["sets"] == 30
                assert totals["get_hits"] == 30
                per_node = await pool.per_node_stats()
                assert set(per_node) == set(stores)
                assert sum(int(s["sets"]) for s in per_node.values()) == 30

        run(main())

    def test_flush_all_fans_out(self):
        async def main():
            async with three_node_pool() as (pool, stores, _):
                await pool.multi_set([(b"key-%d" % i, b"v", 0) for i in range(30)])
                await pool.flush_all()
                assert await pool.multi_get(
                    [b"key-%d" % i for i in range(30)]
                ) == {}

        run(main())

    def test_empty_multi_ops(self):
        async def main():
            async with three_node_pool() as (pool, _, __):
                assert await pool.multi_get([]) == {}
                assert await pool.multi_set([]) == 0

        run(main())


class TestMultiGetErrorAttribution:
    """The partial-failure contract of ``multi_get`` (PR 8 satellite).

    A miss and a dead shard must be distinguishable per key: misses are
    simply absent from the result, while every key owned by a failed
    node lands in ``result.errors`` with that node's exception.
    """

    def test_partial_result_attributes_errors_per_key(self):
        async def main():
            async with three_node_pool() as (pool, stores, servers):
                keys = [b"key-%d" % i for i in range(30)]
                await pool.multi_set([(k, b"v-" + k, 1) for k in keys])
                grouped = pool.group_keys(keys)
                dead = next(iter(grouped))
                await servers[dead].stop()
                for client in pool._clients.values():
                    client.retry = NO_RETRY
                result = await pool.multi_get(keys, partial=True)
                # live nodes answered every one of their keys
                live_keys = [
                    k for node, ks in grouped.items() if node != dead
                    for k in ks
                ]
                assert sorted(result) == sorted(live_keys)
                assert all(result[k] == b"v-" + k for k in live_keys)
                # the dead node's keys carry its exception, per key
                assert sorted(result.errors) == sorted(grouped[dead])
                assert all(
                    isinstance(e, (ConnectionError, OSError))
                    for e in result.errors.values()
                )
                assert not result.complete
                assert pool.node_failures[dead] == 1

        run(main())

    def test_miss_is_not_an_error(self):
        async def main():
            async with three_node_pool() as (pool, _, __):
                await pool.multi_set([(b"present", b"v", 1)])
                result = await pool.multi_get(
                    [b"present", b"absent"], partial=True
                )
                assert result == {b"present": b"v"}
                assert result.errors == {}
                assert result.complete

        run(main())

    def test_default_mode_still_raises_after_all_nodes_finish(self):
        async def main():
            async with three_node_pool() as (pool, _, servers):
                keys = [b"key-%d" % i for i in range(30)]
                await pool.multi_set([(k, b"v", 1) for k in keys])
                dead = next(iter(pool.group_keys(keys)))
                await servers[dead].stop()
                for client in pool._clients.values():
                    client.retry = NO_RETRY
                with pytest.raises((ConnectionError, OSError)):
                    await pool.multi_get(keys)

        run(main())
