"""ShardRouter: group-name routing, address books, pool construction."""

import pytest

from repro.replica import GroupPool
from repro.shard.router import ShardRouter

GROUPS = {
    "shard-0": {"shard-0.r0": ("127.0.0.1", 7001),
                "shard-0.r1": ("127.0.0.1", 7002)},
    "shard-1": {"shard-1.r0": ("127.0.0.1", 7003),
                "shard-1.r1": ("127.0.0.1", 7004)},
}


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShardRouter({})

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            ShardRouter({"g": {}})

    def test_rejects_duplicate_member_names(self):
        with pytest.raises(ValueError):
            ShardRouter({
                "a": {"m": ("h", 1)},
                "b": {"m": ("h", 2)},
            })

    def test_replication_is_group_size(self):
        assert ShardRouter(GROUPS).replication == 2


class TestRouting:
    def test_routing_agrees_with_unreplicated_shard_router(self):
        # the ring is keyed by GROUP name, so key->group here must equal
        # key->shard of a plain ShardRouter over the same names: turning
        # replication on never moves a single key
        replica = ShardRouter(GROUPS)
        plain = ShardRouter({
            "shard-0": ("127.0.0.1", 1), "shard-1": ("127.0.0.1", 2)
        })
        for i in range(200):
            key = b"key-%d" % i
            assert replica.group_for(key) == plain.group_for(key)

    def test_endpoints_for_key(self):
        router = ShardRouter(GROUPS)
        key = b"anything"
        group = router.group_for(key)
        assert router.endpoints_for(key) == list(GROUPS[group].values())

    def test_update_endpoint_preserves_routing(self):
        router = ShardRouter(GROUPS)
        before = [router.group_for(b"key-%d" % i) for i in range(100)]
        router.update_endpoint("shard-0.r1", "127.0.0.1", 9999)
        after = [router.group_for(b"key-%d" % i) for i in range(100)]
        assert before == after
        assert router.members_of("shard-0")["shard-0.r1"] == ("127.0.0.1", 9999)

    def test_update_unknown_member_raises(self):
        with pytest.raises(KeyError):
            ShardRouter(GROUPS).update_endpoint("nope", "h", 1)


class TestConnectPool:
    def test_builds_replicated_pool_with_member_breakers(self):
        from repro.resilience.breaker import BreakerPolicy

        router = ShardRouter(GROUPS)
        pool = router.connect_pool(
            breaker_policy=BreakerPolicy(), write_quorum=1
        )
        assert isinstance(pool, GroupPool)
        assert pool.write_quorum == 1
        assert set(pool.clients) == {
            "shard-0.r0", "shard-0.r1", "shard-1.r0", "shard-1.r1"
        }
        # one breaker per member, named after it
        for name, client in pool.clients.items():
            assert client.breaker is not None
            assert client.breaker.name == name
