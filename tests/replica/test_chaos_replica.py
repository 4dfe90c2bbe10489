"""Acceptance: kill one replica per group mid-workload, lose nothing.

The whole replication story in one test: a replicated fleet served
through seeded ChaosProxies (latency + jitter on every link), one member
of EVERY group SIGKILLed mid-workload.  At W=R no acknowledged write may
be lost, reads must keep succeeding throughout the outage, and once the
victims respawn (bootstrapping from their surviving peer) the groups'
digests must match again.
"""

import asyncio
import time

from repro.aio.backoff import RetryPolicy
from repro.replica import QuorumWriteError
from repro.resilience import ChaosProxy, FaultSchedule
from repro.shard import ShardRouter, ShardSupervisor

RETRY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5)


def test_kill_one_replica_per_group_no_acked_write_lost():
    with ShardSupervisor(
        num_shards=2,
        replication=2,
        write_quorum=2,
        memory_limit=8 * 1024 * 1024,
        slab_size=64 * 1024,
        monitor_interval=0.1,
        anti_entropy_interval=0.5,
    ) as sup:
        acked = asyncio.run(_drive(sup))
        assert len(acked) >= 100  # the workload actually ran

        # after heal: every group's members agree byte-for-byte on
        # (key -> version) digests — respawn bootstrap plus the
        # anti-entropy loop repaired whatever the outage left behind
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if sup.replicas_converged():
                break
            time.sleep(0.2)
        assert sup.replicas_converged()


async def _drive(sup):
    proxies = []
    groups = {}
    try:
        for group, members in sup.group_endpoints().items():
            groups[group] = {}
            for member, (host, port) in members.items():
                schedule = FaultSchedule(seed=len(proxies) + 1).always(
                    latency=0.001, jitter=0.002
                )
                proxy = ChaosProxy(host, port, schedule)
                await proxy.start()
                proxies.append(proxy)
                groups[group][member] = proxy.address

        router = ShardRouter(groups)
        acked = {}
        async with router.connect_pool(write_quorum=2, retry=RETRY) as pool:
            # phase 1: steady state — every write must ack at W=R
            for i in range(100):
                key, value = b"pre-%d" % i, b"val-%d" % i
                await pool.set(key, value, cost=i % 7)
                acked[key] = value

            # phase 2: SIGKILL one member of EVERY group, keep going
            victims = [sup.members_of(g)[0] for g in sup.group_names]
            for victim in victims:
                sup.kill_worker(victim)

            reads_during_outage = 0
            for i in range(100):
                key, value = b"mid-%d" % i, b"val-%d" % i
                try:
                    await pool.set(key, value, cost=3)
                    acked[key] = value
                except (QuorumWriteError, ConnectionError, OSError,
                        asyncio.TimeoutError):
                    pass  # unacked — the test makes no promise about it
                # availability: acked keys stay readable off survivors
                probe = b"pre-%d" % (i % 100)
                assert await pool.get(probe) == acked[probe]
                reads_during_outage += 1
            assert reads_during_outage == 100

            # phase 3: victims respawn (same port, warmed from peer)
            for victim in victims:
                ok = await asyncio.to_thread(
                    sup.wait_for_respawn, victim, 1, 30.0
                )
                assert ok, f"{victim} never respawned"

            # writes ack at full quorum again
            for i in range(50):
                key, value = b"post-%d" % i, b"val-%d" % i
                await pool.set(key, value, cost=1)
                acked[key] = value

            # zero acknowledged-write loss, reads still complete
            found = await pool.multi_get(list(acked))
            assert found.complete
            assert dict(found) == acked
        return acked
    finally:
        for proxy in proxies:
            await proxy.stop()
