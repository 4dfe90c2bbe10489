"""ShardRouter unit tests: ring agreement and restart stability.

The router's one hard promise: key→shard assignment is a pure function of
the shard *names* and replica count — never of ports, pids, or process
lifetimes — and it is the same function every other ring client in the
repo computes.
"""

import pytest

from repro.aio.pool import AsyncStorePool
from repro.cluster.consistent import ConsistentHashRing
from repro.shard import ShardRouter

ENDPOINTS = {
    "shard-0": ("127.0.0.1", 11211),
    "shard-1": ("127.0.0.1", 11212),
    "shard-2": ("127.0.0.1", 11213),
    "shard-3": ("127.0.0.1", 11214),
}

KEYS = [b"key-%d" % i for i in range(500)]


@pytest.fixture
def router():
    return ShardRouter(ENDPOINTS, replicas=100)


class TestRingAgreement:
    def test_matches_consistent_hash_ring(self, router):
        """The router IS the cluster ring — same names, same answers."""
        ring = ConsistentHashRing(list(ENDPOINTS), replicas=100)
        for key in KEYS:
            assert router.group_for(key) == ring.node_for(key)

    def test_matches_async_pool_routing(self, router):
        """connect_pool routes identically (clients are lazy: no sockets)."""
        pool = router.connect_pool()
        for key in KEYS:
            assert pool.group_for(key) == router.group_for(key)

    def test_matches_pool_built_from_same_names(self, router):
        """Any AsyncStorePool over the same names agrees — a sharded
        deployment is routing-compatible with a multi-node cluster."""
        from repro.aio.client import AsyncStoreClient

        clients = {
            name: AsyncStoreClient(host, port)
            for name, (host, port) in ENDPOINTS.items()
        }
        pool = AsyncStorePool(clients, replicas=100)
        for key in KEYS:
            assert pool.group_for(key) == router.group_for(key)

    def test_every_shard_owns_keys(self, router):
        owners = {router.group_for(key) for key in KEYS}
        assert owners == set(ENDPOINTS)


class TestRestartStability:
    def test_endpoint_update_does_not_move_keys(self, router):
        """A respawned worker on a new port keeps its whole key range."""
        before = {key: router.group_for(key) for key in KEYS}
        router.update_endpoint("shard-2", "127.0.0.1", 59999)
        after = {key: router.group_for(key) for key in KEYS}
        assert before == after
        assert router.endpoints_for(
            next(k for k, s in before.items() if s == "shard-2")
        ) == [("127.0.0.1", 59999)]

    def test_rebuilt_router_assigns_identically(self):
        """Two routers (e.g. before/after a supervisor restart) agree as
        long as names and replicas match — ports may differ freely."""
        first = ShardRouter(ENDPOINTS, replicas=100)
        moved = {
            name: ("127.0.0.1", port + 1000)
            for name, (_, port) in ENDPOINTS.items()
        }
        second = ShardRouter(moved, replicas=100)
        for key in KEYS:
            assert first.group_for(key) == second.group_for(key)

    def test_unknown_shard_update_rejected(self, router):
        with pytest.raises(KeyError):
            router.update_endpoint("shard-9", "127.0.0.1", 1)

    def test_empty_router_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter({})
