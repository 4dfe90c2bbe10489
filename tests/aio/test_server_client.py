"""Async server + pooled client: pipelining, limits, timeouts, retries."""

import asyncio
import random

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer, RetryPolicy
from repro.aio.backoff import NO_RETRY
from repro.core import GDWheelPolicy, LRUPolicy
from repro.kvstore import KVStore
from repro.obs import MetricsRegistry
from repro.protocol import StoreConnection, StoreServer


def fresh_store(limit=4 * 1024 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


def run(coro):
    return asyncio.run(coro)


class TestAsyncServerBasics:
    def test_roundtrip_and_cost_reaches_store(self):
        async def main():
            store = fresh_store()
            async with AsyncTCPStoreServer(store) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, pool_size=2)
                assert await client.set(b"k", b"v", cost=321)
                assert await client.get(b"k") == b"v"
                assert await client.get(b"missing") is None
                assert store.hashtable.find(b"k").cost == 321
                await client.aclose()

        run(main())

    def test_ephemeral_port_exposed(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                assert host == "127.0.0.1"
                assert port > 0

        run(main())

    def test_incr_delete_touch_stats(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port)
                await client.set(b"n", b"5")
                assert await client.incr(b"n", 3) == 8
                assert await client.incr(b"absent") is None
                assert await client.delete(b"n") is True
                assert await client.delete(b"n") is False
                stats = await client.stats()
                assert int(stats["sets"]) >= 1
                assert await client.flush_all() is True
                await client.aclose()

        run(main())

    def test_shared_engine_with_loopback(self):
        # the same StoreServer engine instance can back TCP and loopback
        async def main():
            store = fresh_store()
            engine = StoreServer(store)
            async with AsyncTCPStoreServer(engine=engine) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port)
                await client.set(b"k", b"v")
                await client.aclose()
            assert StoreConnection(engine).feed(b"get k\r\n").startswith(b"VALUE k")

        run(main())


class TestPipelining:
    def test_batch_is_one_round_trip_and_ordered(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, pool_size=1)
                items = [(b"k%d" % i, b"v%d" % i, i) for i in range(50)]
                assert await client.set_many(items) == 50
                found = await client.get_many([k for k, _, _ in items])
                assert found == {b"k%d" % i: b"v%d" % i for i in range(50)}
                # 2 batches on a 1-connection pool = 1 connect, 2 requests
                assert client.connects == 1
                assert client.requests == 2
                await client.aclose()

        run(main())

    def test_batch_calls_reach_the_server_as_one_frame(self):
        # the server's per-command histograms count frames: N keys in one
        # call must land as one mget / mset sample and no per-key ones
        async def main():
            store = KVStore(
                memory_limit=4 * 1024 * 1024, slab_size=64 * 1024,
                policy_factory=GDWheelPolicy, registry=MetricsRegistry(),
            )
            async with AsyncTCPStoreServer(store) as server:
                client = AsyncStoreClient(*server.address)
                keys = [b"k%d" % i for i in range(16)]
                assert await client.set_many([(k, b"v", 1) for k in keys]) == 16
                assert len(await client.get_many(keys + [b"ghost"])) == 16
                metrics = await client.stats("metrics")
                assert metrics["cmd_latency_us{cmd=mset}_count"] == "1"
                assert metrics["cmd_latency_us{cmd=mget}_count"] == "1"
                assert "cmd_latency_us{cmd=set}_count" not in metrics
                assert "cmd_latency_us{cmd=get}_count" not in metrics
                await client.aclose()

        run(main())

    def test_empty_batches(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port)
                assert await client.get_many([]) == {}
                assert await client.set_many([]) == 0
                assert client.connects == 0  # nothing hit the wire
                await client.aclose()

        run(main())

    def test_pool_reuses_connections(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, pool_size=4)
                await asyncio.gather(
                    *(client.set(b"k%d" % i, b"v") for i in range(32))
                )
                assert client.connects <= 4
                assert server.total_connections <= 4
                await client.aclose()

        run(main())


class TestConnectionLimit:
    def test_excess_connection_rejected(self):
        async def main():
            async with AsyncTCPStoreServer(
                fresh_store(), max_connections=2
            ) as server:
                host, port = server.address
                c1 = AsyncStoreClient(host, port, pool_size=1)
                c2 = AsyncStoreClient(host, port, pool_size=1)
                await c1.set(b"a", b"1")
                await c2.set(b"b", b"2")
                # both pooled connections are now held open; a third is refused
                reader, writer = await asyncio.open_connection(host, port)
                line = await asyncio.wait_for(reader.readline(), 5)
                assert line == b"SERVER_ERROR too many connections\r\n"
                writer.close()
                assert server.rejected_connections == 1
                await c1.aclose()
                await c2.aclose()

        run(main())


class TestGracefulShutdown:
    def test_stop_closes_connections_and_port(self):
        async def main():
            server = AsyncTCPStoreServer(fresh_store())
            await server.start()
            host, port = server.address
            client = AsyncStoreClient(host, port, pool_size=1, retry=NO_RETRY)
            await client.set(b"k", b"v")
            await server.stop()
            await server.stop()  # idempotent
            with pytest.raises((ConnectionError, OSError, asyncio.TimeoutError)):
                await client.get(b"k")
            await client.aclose()

        run(main())

    def test_peak_connection_accounting(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, pool_size=8)
                await asyncio.gather(
                    *(client.set(b"k%d" % i, b"v") for i in range(64))
                )
                await client.aclose()
                assert server.peak_connections <= 8
                assert server.total_connections == client.connects
                assert server.bytes_in > 0 and server.bytes_out > 0
            assert server.current_connections == 0

        run(main())


class _FlakyFrontend:
    """A server that swallows requests (no reply) for the first N connections,
    then serves normally — the injected-timeout fixture for retry tests."""

    def __init__(self, engine, stall_connections=1):
        self.engine = engine
        self.stalls_remaining = stall_connections
        self.stalled = 0

    async def handle(self, reader, writer):
        if self.stalls_remaining > 0:
            self.stalls_remaining -= 1
            self.stalled += 1
            try:
                while await reader.read(65536):
                    pass  # swallow requests until the client hangs up
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        connection = StoreConnection(self.engine)
        while connection.open:
            data = await reader.read(65536)
            if not data:
                break
            out = connection.feed(data)
            if out:
                writer.write(out)
                await writer.drain()
        writer.close()


class TestTimeoutsAndRetries:
    def test_injected_timeout_is_retried_with_backoff(self):
        async def main():
            frontend = _FlakyFrontend(StoreServer(fresh_store()), stall_connections=1)
            server = await asyncio.start_server(frontend.handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncStoreClient(
                host, port, pool_size=1, timeout=0.15,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.5),
                rng=random.Random(1),
            )
            assert await client.set(b"k", b"v", cost=9) is True
            assert await client.get(b"k") == b"v"
            assert frontend.stalled == 1
            assert client.timeouts >= 1
            assert client.request_retries >= 1
            await client.aclose()
            server.close()
            await server.wait_closed()

        run(main())

    def test_retries_exhausted_raises(self):
        async def main():
            frontend = _FlakyFrontend(StoreServer(fresh_store()), stall_connections=10)
            server = await asyncio.start_server(frontend.handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = AsyncStoreClient(
                host, port, pool_size=1, timeout=0.05,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            )
            with pytest.raises(asyncio.TimeoutError):
                await client.get(b"k")
            assert client.request_retries == 1
            await client.aclose()
            server.close()
            await server.wait_closed()

        run(main())

    def test_connect_refused_retries_then_raises(self):
        async def main():
            # bind then close a socket to get a port nobody listens on
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            host, port = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            client = AsyncStoreClient(
                host, port, pool_size=1, timeout=0.2,
                retry=RetryPolicy(max_attempts=3, base_delay=0.005),
            )
            with pytest.raises((ConnectionError, OSError, asyncio.TimeoutError)):
                await client.get(b"k")
            assert client.connect_retries == 2
            await client.aclose()

        run(main())

    def test_dropped_connection_recovered(self):
        # a pooled connection killed server-side is discarded and redialed
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                client = AsyncStoreClient(
                    host, port, pool_size=1,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                )
                await client.set(b"k", b"v")
                # kill the server side of the pooled connection
                for protocol in list(server._connections):
                    protocol.transport.close()
                await asyncio.sleep(0.05)
                assert await client.get(b"k") == b"v"
                assert client.connects == 2
                await client.aclose()

        run(main())


class TestClientValidation:
    def test_pool_size_must_be_positive(self):
        with pytest.raises(ValueError):
            AsyncStoreClient("127.0.0.1", 1, pool_size=0)

    def test_closed_client_rejects_requests(self):
        async def main():
            client = AsyncStoreClient("127.0.0.1", 1)
            await client.aclose()
            with pytest.raises(ConnectionError):
                await client.get(b"k")

        run(main())


class TestCloseDuringBackoff:
    def test_aclose_interrupts_retry_backoff_sleep(self):
        # regression: aclose() used to wait out in-flight backoff sleeps,
        # so closing a client mid-retry could hang for the full schedule
        async def main():
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            host, port = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            client = AsyncStoreClient(
                host, port, pool_size=1, timeout=0.2,
                retry=RetryPolicy(max_attempts=3, base_delay=30.0, jitter=0.0),
            )
            task = asyncio.create_task(client.get(b"k"))
            await asyncio.sleep(0.2)  # first dial failed; now deep in backoff
            loop = asyncio.get_running_loop()
            started = loop.time()
            await client.aclose()
            with pytest.raises((ConnectionError, OSError)):
                await task
            assert loop.time() - started < 1.0  # not the 30s schedule

        run(main())


class TestRejectionTracing:
    def test_over_cap_rejection_records_trace_event(self):
        async def main():
            from repro.obs import EventTrace

            trace = EventTrace()
            engine = StoreServer(fresh_store(), trace=trace)
            async with AsyncTCPStoreServer(
                engine=engine, max_connections=1
            ) as server:
                host, port = server.address
                holder = AsyncStoreClient(host, port, pool_size=1)
                await holder.set(b"a", b"1")  # pins the only slot
                reader, writer = await asyncio.open_connection(host, port)
                line = await asyncio.wait_for(reader.readline(), 5)
                assert line == b"SERVER_ERROR too many connections\r\n"
                writer.close()
                events = trace.events(kind="conn_rejected")
                assert len(events) == 1
                assert events[0].reason == "max_connections"
                assert events[0].current == 1 and events[0].limit == 1
                await holder.aclose()

        run(main())
