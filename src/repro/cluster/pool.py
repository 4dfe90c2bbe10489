"""Store pools: single consistent-hashed pools and Facebook-style
cost-partitioned pool groups (the Section 2.2 motivation).

Two ways to organize a fleet of stores:

* :class:`StorePool` — one pool; keys spread over all member stores by
  consistent hashing.  With GD-Wheel inside each store, expensive and
  cheap values share memory and the *policy* arbitrates.
* :class:`CostPartitionedPools` — Facebook's workaround for cost
  variation with cost-oblivious replacement (Nishtala et al., cited in
  Section 2.2): dedicate separate, statically sized pools to different
  cost classes.  "If the workload characteristics change over time, such
  partitioning may result in inefficient usage of memory" — the A-5
  ablation quantifies exactly that against a single GD-Wheel pool.

Both expose the same cache-aside surface (``get``/``set``/stats), so the
experiment driver can swap them freely.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kvstore.item import Item
from repro.kvstore.store import KVStore
from repro.cluster.consistent import ConsistentHashRing


class StorePool:
    """One logical cache made of many stores behind a consistent-hash ring."""

    def __init__(self, stores: Dict[str, KVStore], replicas: int = 100) -> None:
        if not stores:
            raise ValueError("a pool needs at least one store")
        self._stores = dict(stores)
        self._ring = ConsistentHashRing(list(stores), replicas=replicas)

    @property
    def stores(self) -> Dict[str, KVStore]:
        return dict(self._stores)

    def store_for(self, key: bytes) -> KVStore:
        node = self._ring.node_for(key)
        assert node is not None
        return self._stores[node]

    def get(self, key: bytes) -> Optional[Item]:
        return self.store_for(key).get(key)

    def group_by_node(self, keys: Sequence[bytes]) -> Dict[str, List[bytes]]:
        """Partition ``keys`` by owning node, preserving per-node order."""
        grouped: Dict[str, List[bytes]] = {}
        for key in keys:
            node = self._ring.node_for(key)
            assert node is not None
            grouped.setdefault(node, []).append(key)
        return grouped

    def multi_get(self, keys: Sequence[bytes]) -> Dict[bytes, Item]:
        """Batch GET grouped per node; hits only, keyed by request key.

        The same batch surface as :meth:`repro.aio.pool.AsyncStorePool.multi_get`
        — one grouped lookup pass per owning node — so sync and async pools
        are drop-in interchangeable for cache-aside callers.
        """
        found: Dict[bytes, Item] = {}
        for node, node_keys in self.group_by_node(keys).items():
            store = self._stores[node]
            for key in node_keys:
                item = store.get(key)
                if item is not None:
                    found[key] = item
        return found

    def set(self, key: bytes, value: bytes, cost: int = 0, **kwargs) -> Item:
        return self.store_for(key).set(key, value, cost=cost, **kwargs)

    def delete(self, key: bytes) -> bool:
        return self.store_for(key).delete(key)

    def add_store(self, name: str, store: KVStore) -> None:
        """Scale out; ~1/n of the key space remaps (and cold-misses)."""
        if name in self._stores:
            raise ValueError(f"store {name!r} already pooled")
        self._stores[name] = store
        self._ring.add_node(name)

    def remove_store(self, name: str) -> KVStore:
        """Scale in (or simulate a node failure)."""
        store = self._stores.pop(name)
        self._ring.remove_node(name)
        return store

    def total_items(self) -> int:
        return sum(len(s) for s in self._stores.values())

    def aggregate_stats(self) -> Dict[str, int]:
        """Summed counters across member stores."""
        totals: Dict[str, int] = {}
        for store in self._stores.values():
            for name, value in store.stats.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def hit_rate(self) -> float:
        stats = self.aggregate_stats()
        gets = stats.get("gets", 0)
        return stats.get("get_hits", 0) / gets if gets else 0.0


class CostPartitionedPools:
    """Facebook-style static partitioning: one pool per cost band.

    ``bands`` are (inclusive upper cost bound, pool) pairs, sorted by
    bound; a key's cost selects its pool.  Memory is fixed per pool at
    construction — the whole point of the paper's criticism.
    """

    def __init__(self, bands: Sequence[Tuple[int, StorePool]]) -> None:
        if not bands:
            raise ValueError("at least one band required")
        bounds = [bound for bound, _ in bands]
        if bounds != sorted(bounds):
            raise ValueError("bands must be sorted by cost bound")
        self._bands: List[Tuple[int, StorePool]] = list(bands)

    def pool_for_cost(self, cost: int) -> StorePool:
        for bound, pool in self._bands:
            if cost <= bound:
                return pool
        return self._bands[-1][1]  # costs above the top bound use the last pool

    def get(self, key: bytes, cost: int) -> Optional[Item]:
        """GET must know the key's cost class to pick the pool — one of the
        operational burdens of static partitioning."""
        return self.pool_for_cost(cost).get(key)

    def set(self, key: bytes, value: bytes, cost: int = 0, **kwargs) -> Item:
        return self.pool_for_cost(cost).set(key, value, cost=cost, **kwargs)

    def aggregate_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for _, pool in self._bands:
            for name, value in pool.aggregate_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def pools(self) -> List[StorePool]:
        return [pool for _, pool in self._bands]


def make_uniform_pool(
    num_stores: int,
    memory_limit_each: int,
    policy_factory: Callable,
    slab_size: int = 64 * 1024,
    clock=None,
    name_prefix: str = "node",
) -> StorePool:
    """Convenience: a pool of ``num_stores`` identical stores."""
    stores = {
        f"{name_prefix}{i}": KVStore(
            memory_limit=memory_limit_each,
            slab_size=slab_size,
            policy_factory=policy_factory,
            clock=clock,
        )
        for i in range(num_stores)
    }
    return StorePool(stores)
