"""``stats metrics`` / ``stats trace`` / ``stats reset`` over real TCP.

The asyncio server must expose per-command latency percentiles, eviction
counters, and per-class cost-per-byte gauges that agree with the store's
own ``StoreStats`` — over an actual socket, not loopback — to the blocking
client and the asyncio client alike.
"""

import asyncio

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.obs import EventTrace, MetricsRegistry
from repro.protocol import CostAwareClient
from tests.serving import ServingThread


def instrumented_store(memory=256 * 1024):
    return KVStore(
        memory_limit=memory,
        slab_size=64 * 1024,
        policy_factory=lambda: GDWheelPolicy(num_queues=64, num_wheels=2),
        registry=MetricsRegistry(),
        trace=EventTrace(capacity=256),
    )


def drive_workload(set_, get):
    """A tiny deterministic workload: sets, hits, misses, one delete."""
    for i in range(20):
        set_(b"k%02d" % i, b"v" * 64, 1 + i)
    for i in range(10):
        get(b"k%02d" % i)
    get(b"absent")


class TestBlockingClient:
    def test_stats_metrics_agrees_with_store_stats(self):
        store = instrumented_store()
        with ServingThread(store) as server:
            host, port = server.address
            client = CostAwareClient.tcp(host, port)
            drive_workload(
                lambda k, v, c: client.set(k, v, cost=c), client.get
            )
            metrics = client.stats("metrics")
            client.close()

        assert int(metrics["store_sets_total"]) == store.stats.sets == 20
        assert int(metrics["store_get_hits_total"]) == store.stats.get_hits == 10
        assert int(metrics["store_get_misses_total"]) == 1
        # per-command latency histograms with percentiles
        assert int(metrics["cmd_latency_us{cmd=get}_count"]) == 11
        assert int(metrics["cmd_latency_us{cmd=set}_count"]) == 20
        assert float(metrics["cmd_latency_us{cmd=get}_p99"]) > 0
        assert float(metrics["cmd_latency_us{cmd=get}_p50"]) > 0
        # per-op store latency (wrapped because a registry was passed)
        assert int(metrics["store_op_latency_us{op=set}_count"]) == 20
        # connection accounting for this transport
        assert int(metrics["server_connections_total{transport=async}"]) == 1
        assert int(metrics["server_bytes_in_total{transport=async}"]) > 0
        # per-class cost-per-byte gauges agree with class_stats()
        for snapshot in store.class_stats():
            if snapshot.live_items == 0:
                continue
            series = f"slab_class_cost_per_byte{{class_id={snapshot.class_id}}}"
            assert float(metrics[series]) == pytest.approx(
                snapshot.average_cost_per_byte, abs=5e-7  # wire rounds to 6dp
            )

    def test_stats_trace_and_reset(self):
        store = instrumented_store(memory=64 * 1024)
        with ServingThread(store) as server:
            host, port = server.address
            client = CostAwareClient.tcp(host, port)
            # overflow one slab class so the policy must evict
            for i in range(600):
                client.set(b"k%04d" % i, b"v" * 64, cost=5)
            trace = client.stats("trace")
            assert int(trace["trace:count:eviction"]) == store.stats.evictions > 0
            assert int(trace["trace:buffered"]) > 0
            event_lines = [v for k, v in trace.items() if k.startswith("trace:count") is False and k.startswith("trace:") and k != "trace:buffered"]
            assert any(line.startswith("eviction ") for line in event_lines)

            assert client.stats_reset() is True
            assert store.stats.evictions == 0
            after = client.stats("trace")
            assert "trace:count:eviction" not in after
            metrics = client.stats("metrics")
            assert int(metrics["store_sets_total"]) == 0
            # gauges (levels) survive a reset, like memcached curr_items
            assert int(metrics["store_curr_items"]) == len(store) > 0
            client.close()


class TestAsyncServer:
    def test_stats_metrics_trace_reset_over_asyncio(self):
        store = instrumented_store()

        async def main():
            async with AsyncTCPStoreServer(store) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port, pool_size=1)
                for i in range(20):
                    await client.set(b"k%02d" % i, b"v" * 64, cost=1 + i)
                for i in range(10):
                    await client.get(b"k%02d" % i)
                await client.get(b"absent")
                metrics = await client.stats("metrics")
                trace = await client.stats("trace")
                did_reset = await client.stats_reset()
                after = await client.stats("metrics")
                await client.aclose()
                return metrics, trace, did_reset, after

        metrics, trace, did_reset, after = asyncio.run(main())
        assert int(metrics["store_sets_total"]) == 20
        assert int(metrics["cmd_latency_us{cmd=get}_count"]) == 11
        assert float(metrics["cmd_latency_us{cmd=get}_p99"]) > 0
        # asyncio transport accounting is labeled separately
        assert int(metrics["server_connections_total{transport=async}"]) >= 1
        assert int(metrics["server_bytes_out_total{transport=async}"]) > 0
        for snapshot in store.class_stats():
            if snapshot.live_items == 0:
                continue
            series = f"slab_class_cost_per_byte{{class_id={snapshot.class_id}}}"
            assert float(metrics[series]) == pytest.approx(
                snapshot.average_cost_per_byte, abs=5e-7  # wire rounds to 6dp
            )
        # no evictions in this workload; the trace subcommand still answers
        assert "trace:buffered" in trace
        assert did_reset is True
        assert int(after["store_sets_total"]) == 0

    def test_trace_disabled_reported(self):
        async def main():
            store = KVStore(
                memory_limit=64 * 1024, slab_size=64 * 1024,
                policy_factory=GDWheelPolicy,
            )
            async with AsyncTCPStoreServer(store) as server:
                host, port = server.address
                client = AsyncStoreClient(host, port)
                trace = await client.stats("trace")
                await client.aclose()
                return trace

        trace = asyncio.run(main())
        assert trace["trace"] == "disabled"
