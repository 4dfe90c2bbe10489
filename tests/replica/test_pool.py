"""ReplicatedStorePool: quorum writes, LWW acks, and read failover."""

import asyncio

import pytest

from repro.aio.backoff import RetryPolicy
from repro.replica import QuorumWriteError
from repro.replica.hlc import pack_version
from repro.resilience.breaker import BreakerPolicy
from repro.shard import ShardRouter

#: fail fast — dead members should cost one dial, not a backoff ladder
FAST = RetryPolicy(max_attempts=1)

FAR_FUTURE = pack_version(1 << 45, 0)


def run(coro):
    return asyncio.run(coro)


def router_for(pair):
    return ShardRouter({
        "g0": {"g0.r0": pair[0].address, "g0.r1": pair[1].address}
    })


class TestQuorumWrites:
    def test_w2_set_lands_on_both_members(self, pair):
        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                assert await pool.set(b"alpha", b"one", cost=7) is True

        run(main())
        for member in pair:
            item = member.store.get(b"alpha")
            assert item.value == b"one"
            assert item.cost == 7
            assert item.version > 0

    def test_same_version_on_every_replica(self, pair):
        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                await pool.set(b"alpha", b"one")

        run(main())
        versions = {m.store.get(b"alpha").version for m in pair}
        assert len(versions) == 1

    def test_w2_write_fails_with_one_member_down(self, pair):
        pair[1].stop()

        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                with pytest.raises(QuorumWriteError) as excinfo:
                    await pool.set(b"beta", b"two")
                assert excinfo.value.acks == 1
                assert excinfo.value.needed == 2
                assert pool.quorum_failures == 1

        run(main())

    def test_w1_write_succeeds_with_one_member_down(self, pair):
        pair[1].stop()

        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=1, retry=FAST
            ) as pool:
                assert await pool.set(b"gamma", b"three") is True
                await pool.drain(timeout=5)
                # the dead member's background leg is a tallied failure,
                # not a lost exception
                assert pool.async_write_failures == 1

        run(main())
        assert pair[0].store.get(b"gamma").value == b"three"

    def test_lww_reject_counts_as_ack(self, pair):
        # both members already hold a far-future version: every leg
        # answers NOT_STORED, quorum is met (durably resolved), and the
        # call reports stored=False because the write won nowhere
        for member in pair:
            member.store.set(b"pinned", b"newer", version=FAR_FUTURE)

        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                assert await pool.set(b"pinned", b"older") is False
                assert pool.quorum_failures == 0

        run(main())
        for member in pair:
            assert member.store.get(b"pinned").value == b"newer"

    def test_multi_set_quorum(self, pair):
        items = [(b"ms-%d" % i, b"v-%d" % i, i % 5) for i in range(40)]

        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                assert await pool.multi_set(items) == 40

        run(main())
        for member in pair:
            for key, value, _ in items:
                assert member.store.get(key).value == value

    def test_multi_set_raises_when_quorum_unreachable(self, pair):
        pair[0].stop()
        pair[1].stop()

        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=1, retry=FAST
            ) as pool:
                with pytest.raises(QuorumWriteError):
                    await pool.multi_set([(b"k", b"v", 1)])

        run(main())


class TestReadFailover:
    def seed(self, pair, n=30):
        async def main():
            async with router_for(pair).connect_pool(
                write_quorum=2, retry=FAST
            ) as pool:
                for i in range(n):
                    await pool.set(b"key-%d" % i, b"val-%d" % i)

        run(main())

    def test_get_fails_over_to_surviving_member(self, pair):
        self.seed(pair)
        pair[0].stop()

        async def main():
            async with router_for(pair).connect_pool(retry=FAST) as pool:
                for i in range(30):
                    assert await pool.get(b"key-%d" % i) == b"val-%d" % i
                # roughly half the keys had the dead member as primary
                assert pool.replica_failovers > 0

        run(main())

    def test_multi_get_fails_over_per_key(self, pair):
        self.seed(pair)
        pair[1].stop()
        keys = [b"key-%d" % i for i in range(30)]

        async def main():
            async with router_for(pair).connect_pool(retry=FAST) as pool:
                found = await pool.multi_get(keys)
                assert found == {
                    b"key-%d" % i: b"val-%d" % i for i in range(30)
                }
                assert found.complete

        run(main())

    def test_group_fully_down_raises_not_invents_misses(self, pair):
        self.seed(pair, n=1)
        pair[0].stop()
        pair[1].stop()

        async def main():
            async with router_for(pair).connect_pool(retry=FAST) as pool:
                with pytest.raises((ConnectionError, OSError)):
                    await pool.get(b"key-0")
                partial = await pool.multi_get([b"key-0"], partial=True)
                assert not partial.complete
                assert b"key-0" in partial.errors

        run(main())

    def test_replica_set_rotates_primaries(self, pair):
        pool = router_for(pair).connect_pool(retry=FAST)
        primaries = {pool.replica_set(b"key-%d" % i)[0] for i in range(64)}
        assert primaries == {"g0.r0", "g0.r1"}  # both members take load
        run(pool.aclose())

    def test_open_breaker_member_demoted_without_probe(self, pair):
        self.seed(pair)
        keys = [b"key-%d" % i for i in range(30)]

        async def main():
            async with router_for(pair).connect_pool(
                retry=FAST,
                breaker_policy=BreakerPolicy(
                    failure_threshold=1, recovery_time=60.0
                ),
            ) as pool:
                pool.breakers["g0.r0"].record_failure()
                found = await pool.multi_get(keys)
                assert found == {
                    b"key-%d" % i: b"val-%d" % i for i in range(30)
                }
                # the pre-check reads .state, never allow(): the breaker is
                # untouched and the condemned member took no traffic
                assert pool.breakers["g0.r0"].state == "open"
                assert pool.node_ops["g0.r0"] == 0

        run(main())
