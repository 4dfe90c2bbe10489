"""Frozen copy of the pre-optimization simulation request path.

``run_simulation_frozen`` replays one experiment cell through the request
path exactly as it stood before the hot-path pass (PR 5): the per-request
driver loop (one Python call per request for key bytes, cost lookup, value
construction, clock advance, and request-log recording) driving a store
whose GET/SET bodies, hash-table probe, item constructor, and policy
touch/insert methods carry the old, un-inlined implementations.  The
frozen pieces are subclasses pinning the old method bodies — except the
hash table, a full copy of the chained table the live store has since
replaced with a ``dict`` index — so workload
generation, slab accounting, eviction logic, and result summarization stay
shared with the live code — the A/B difference is exactly the hot-path
work this PR removed.

``benchmarks/run_sim_bench.py`` A/B-interleaves this against the live
driver and asserts the results are identical (same hit rate, same
miss-cost sequence, same store stats) before trusting any speedup number.
Do not "improve" this file: its value is that it does not move.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator, List, Optional

from repro.core.gdpq import GDPQPolicy
from repro.core.gdwheel import GDWheelPolicy
from repro.core.lru import LRUPolicy
from repro.core.policy import EvictionError, PolicyEntry
from repro.kvstore import KVStore, SimClock
from repro.kvstore.hashtable import fnv1a_64
from repro.kvstore.item import ITEM_HEADER_SIZE, Item, NEVER_EXPIRES
from repro.obs.reporter import diff_snapshots
from repro.sim.driver import (
    SimConfig,
    estimate_capacity_items,
    make_policy_factory,
    make_rebalancer,
    resolve_num_keys,
)
from repro.sim.metrics import RequestLog
from repro.sim.results import SimResult


class FrozenLRUPolicy(LRUPolicy):
    """LRU with the old two-call touch (unlink then relink)."""

    def touch(self, entry: PolicyEntry) -> None:
        queue = self._queue
        queue.remove(entry)
        queue.push_head(entry)


class FrozenGDWheelPolicy(GDWheelPolicy):
    """GD-Wheel with the old _unlink/_place call chain on touch/insert."""

    def _place(self, entry: PolicyEntry) -> None:
        delta = entry.policy_h - self._inflation
        level = 0
        while level + 1 < self.num_wheels and delta >= self._pow[level + 1]:
            level += 1
        slot = (entry.policy_h // self._pow[level]) % self.num_queues
        self._wheels[level][slot].push_head(entry)
        self._level_counts[level] += 1
        entry.policy_slot = level

    def _unlink(self, entry: PolicyEntry) -> None:
        owner = entry.owner
        if owner is None or not isinstance(entry.policy_slot, int):
            raise ValueError("entry is not tracked by this policy")
        owner.remove(entry)
        self._level_counts[entry.policy_slot] -= 1
        entry.policy_slot = None

    def insert(self, entry: PolicyEntry, cost: int = 0) -> None:
        cost = self._effective_cost(cost)
        entry.cost = cost
        entry.policy_h = self._inflation + cost
        entry.policy_seq = 0
        self._place(entry)
        self._count += 1

    def touch(self, entry: PolicyEntry) -> None:
        self._unlink(entry)
        entry.policy_h = self._inflation + self._effective_cost(entry.cost)
        entry.policy_seq = 0
        self._place(entry)

    def select_victim(self) -> PolicyEntry:
        if self._count == 0:
            raise EvictionError("GD-Wheel tracks no entries")
        nq = self.num_queues
        wheel0 = self._wheels[0]
        while True:
            if self._level_counts[0]:
                queue = wheel0[self._inflation % nq]
                if queue:
                    victim: PolicyEntry = queue.pop_tail()  # type: ignore[assignment]
                    self._level_counts[0] -= 1
                    victim.policy_slot = None
                    self._count -= 1
                    if self._inflation_gauge is not None:
                        self._inflation_gauge.set(self._inflation)
                    return victim
                self._inflation += 1
                if self._inflation % nq == 0:
                    self._cascade()
            else:
                lowest = min(
                    i for i in range(self.num_wheels) if self._level_counts[i]
                )
                step = self._pow[lowest]
                self._inflation = (self._inflation // step + 1) * step
                self._cascade()


class FrozenGDPQPolicy(GDPQPolicy):
    """GD-PQ with the old method-per-step touch and heapq attribute calls."""

    def touch(self, entry: PolicyEntry) -> None:
        self._invalidate(entry)
        entry.policy_h = self._inflation + entry.cost
        self._push(entry)
        self._maybe_compact()

    def select_victim(self) -> PolicyEntry:
        while self._heap:
            slot = heapq.heappop(self._heap)
            entry = slot[2]
            if entry is None:
                continue
            entry.policy_ref = None
            self._live -= 1
            self._inflation = entry.policy_h
            self._maybe_deflate()
            if self._inflation_gauge is not None:
                self._inflation_gauge.set(self._inflation)
            return entry
        raise EvictionError("GD-PQ tracks no entries")


class FrozenHashTable:
    """Verbatim copy of the chained hash table the live store used to index
    with (power-of-two buckets chained through ``h_next``, incremental
    doubling), with the old find() that always goes through _locate."""

    #: old buckets migrated per mutating operation while expanding
    MIGRATE_BATCH = 4

    def __init__(
        self,
        initial_power: int = 10,
        load_factor: float = 1.5,
        hash_func=fnv1a_64,
    ) -> None:
        """
        Args:
            initial_power: table starts with ``2**initial_power`` buckets
                (memcached's default power is 16; tests use smaller).
            load_factor: expansion threshold (items / buckets).
            hash_func: bytes -> int.  FNV-1a by default (memcached's
                historical choice); simulations may pass the built-in
                ``hash`` for speed — bucket layout never affects results.
        """
        if initial_power < 1:
            raise ValueError("initial_power must be >= 1")
        self._hash = hash_func
        self._power = initial_power
        self._buckets: List[Optional[Item]] = [None] * (1 << initial_power)
        self._old_buckets: Optional[List[Optional[Item]]] = None
        self._migrate_pos = 0
        self._count = 0
        self._load_factor = load_factor
        #: number of completed expansions (observability)
        self.expansions = 0

    def __len__(self) -> int:
        return self._count

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    @property
    def expanding(self) -> bool:
        return self._old_buckets is not None

    # -- internals ---------------------------------------------------------------

    def _bucket_index(self, hashval: int, buckets: List[Optional[Item]]) -> int:
        return hashval & (len(buckets) - 1)

    def _locate(self, key: bytes, hashval: int):
        """Return (bucket_list, index, prev_item, item) for ``key``."""
        # While expanding, a key lives in the old table if its old bucket has
        # not been migrated yet.
        if self._old_buckets is not None:
            old_idx = self._bucket_index(hashval, self._old_buckets)
            if old_idx >= self._migrate_pos:
                buckets, idx = self._old_buckets, old_idx
            else:
                buckets, idx = self._buckets, self._bucket_index(hashval, self._buckets)
        else:
            buckets, idx = self._buckets, self._bucket_index(hashval, self._buckets)
        prev: Optional[Item] = None
        item = buckets[idx]
        while item is not None:
            if item.key == key:
                return buckets, idx, prev, item
            prev, item = item, item.h_next
        return buckets, idx, None, None

    def _maybe_start_expansion(self) -> None:
        if self._old_buckets is not None:
            return
        if self._count <= self._load_factor * len(self._buckets):
            return
        self._old_buckets = self._buckets
        self._buckets = [None] * (len(self._old_buckets) * 2)
        self._power += 1
        self._migrate_pos = 0

    def _migrate_some(self) -> None:
        if self._old_buckets is None:
            return
        batch = self.MIGRATE_BATCH
        old = self._old_buckets
        while batch > 0 and self._migrate_pos < len(old):
            item = old[self._migrate_pos]
            while item is not None:
                nxt = item.h_next
                idx = self._bucket_index(self._hash(item.key), self._buckets)
                item.h_next = self._buckets[idx]
                self._buckets[idx] = item
                item = nxt
            old[self._migrate_pos] = None
            self._migrate_pos += 1
            batch -= 1
        if self._migrate_pos >= len(old):
            self._old_buckets = None
            self._migrate_pos = 0
            self.expansions += 1

    # -- public API ----------------------------------------------------------------

    def find(self, key: bytes) -> Optional[Item]:
        """Look up ``key``; returns the item or ``None``."""
        _, _, _, item = self._locate(key, self._hash(key))
        return item

    def insert(self, item: Item) -> None:
        """Insert a new item.  The key must not already be present."""
        hashval = self._hash(item.key)
        buckets, idx, _, existing = self._locate(item.key, hashval)
        if existing is not None:
            raise KeyError(f"duplicate key {item.key!r}")
        item.h_next = buckets[idx]
        buckets[idx] = item
        self._count += 1
        self._maybe_start_expansion()
        self._migrate_some()

    def delete(self, key: bytes) -> Optional[Item]:
        """Remove and return the item for ``key``, or ``None``."""
        buckets, idx, prev, item = self._locate(key, self._hash(key))
        if item is None:
            return None
        if prev is None:
            buckets[idx] = item.h_next
        else:
            prev.h_next = item.h_next
        item.h_next = None
        self._count -= 1
        self._migrate_some()
        return item

    def __contains__(self, key: bytes) -> bool:
        return self.find(key) is not None

    def items(self) -> Iterator[Item]:
        """Iterate all items (unordered); O(buckets + items)."""
        tables = [self._buckets]
        if self._old_buckets is not None:
            tables.append(self._old_buckets)
        for table in tables:
            for head in table:
                item = head
                while item is not None:
                    yield item
                    item = item.h_next


class FrozenItem(Item):
    """Item with the old super().__init__ construction chain and the
    hash-chain link the frozen table threads through."""

    __slots__ = ("h_next",)

    def __init__(self, key, value, cost=0, flags=0, exptime=NEVER_EXPIRES):
        if not isinstance(key, bytes):
            raise TypeError("key must be bytes")
        if not isinstance(value, bytes):
            raise TypeError("value must be bytes")
        PolicyEntry.__init__(
            self, cost=cost, size=ITEM_HEADER_SIZE + len(key) + len(value), key=key
        )
        self.value = value
        self.flags = flags
        self.exptime = exptime
        self.h_next = None
        self.slab = None
        self.chunk_index = None
        self.last_access = 0.0
        self.cas_unique = 0


class FrozenKVStore(KVStore):
    """KVStore with the old GET/SET bodies (property-backed stats bumps,
    clock reads through the ``now`` property, un-inlined hash probe)."""

    def __init__(self, *args, hash_power=10, hash_func=None, **kwargs):
        super().__init__(*args, **kwargs)
        if hash_func is not None:
            self.hashtable = FrozenHashTable(
                initial_power=hash_power, hash_func=hash_func
            )
        else:
            self.hashtable = FrozenHashTable(initial_power=hash_power)

    def get(self, key):
        on_request = self._on_request
        if on_request is not None:
            on_request()
        item = self.hashtable.find(key)
        stats = self.stats
        if item is None:
            stats.get_misses += 1
            return None
        now = self.clock.now
        exptime = item.exptime
        if exptime != NEVER_EXPIRES and now >= exptime:
            self._unlink_item(item, item.slab.owner)
            stats.get_expired += 1
            stats.get_misses += 1
            return None
        stats.get_hits += 1
        item.last_access = now
        slab = item.slab
        slab.last_access = now
        slab_class = slab.owner
        policy = slab_class.policy
        if policy is None:
            policy = self.policy_for(slab_class)
        policy.touch(item)
        return item

    def _store_item(self, key, value, cost, exptime, flags, version=0):
        # the live set() now passes ``version`` (always 0 in the simulator);
        # it is accepted so set() can reach this frozen body, and ignored
        old = self.hashtable.find(key)
        if old is not None:
            self._unlink_item(old, old.slab.owner)
        item = FrozenItem(
            key=key, value=value, cost=cost, flags=flags, exptime=exptime
        )
        slab_class = self.allocator.class_for_size(item.footprint)
        slab, index = self._allocate_chunk(slab_class)
        slab_class.store_item(item, slab, index)
        self.hashtable.insert(item)
        now = self.clock.now
        item.last_access = now
        slab.last_access = now
        self._cas_counter += 1
        item.cas_unique = self._cas_counter
        policy = slab_class.policy
        if policy is None:
            policy = self.policy_for(slab_class)
        policy.insert(item, cost)
        self.stats.sets += 1
        return item


def _frozen_policy_factory(name, capacity_items, max_cost, **kwargs):
    """make_policy_factory with the frozen variants for the bench policies."""
    if name == "lru":
        return lambda: FrozenLRUPolicy(**kwargs)
    if name == "gd-wheel":
        options = {"num_queues": 256, "num_wheels": 2}
        options.update(kwargs)
        wheel_capacity = options["num_queues"] ** options["num_wheels"] - 1
        if max_cost > wheel_capacity:
            raise ValueError(
                f"workload max cost {max_cost} exceeds wheel capacity "
                f"{wheel_capacity}; widen num_queues/num_wheels"
            )
        return lambda: FrozenGDWheelPolicy(**options)
    if name == "gd-pq":
        return lambda: FrozenGDPQPolicy(**kwargs)
    return make_policy_factory(name, capacity_items, max_cost, **kwargs)


def run_simulation_frozen(config: SimConfig) -> SimResult:
    """Warmup, measure, and summarize one cell — the pre-PR-5 request path."""
    started = time.perf_counter()
    num_keys = resolve_num_keys(config)
    workload = config.spec.materialize(num_keys=num_keys, seed=config.seed)
    probe_capacity = estimate_capacity_items(config, workload)

    clock = SimClock()
    measurement_seconds = config.num_requests * config.request_interval_s
    policy_factory = _frozen_policy_factory(
        config.policy, probe_capacity, workload.max_cost(), **config.policy_kwargs
    )
    rebalancer = make_rebalancer(
        config.rebalancer, measurement_seconds, **config.rebalancer_kwargs
    )
    store = FrozenKVStore(
        memory_limit=config.memory_limit,
        policy_factory=policy_factory,
        rebalancer=rebalancer,
        slab_size=config.slab_size,
        clock=clock,
        hash_power=14,
        hash_func=hash,
    )

    dt = config.request_interval_s
    key_bytes = workload.key_bytes
    # The pre-PR-5 Workload accessors resolved cost/value per request from
    # the numpy arrays (scalar index + int() + a fresh bytes allocation);
    # the live Workload now serves both from precomputed lists, so the
    # frozen behavior is replicated here rather than called.
    costs_arr = workload.costs
    sizes_arr = workload.value_sizes

    def cost_of(key_id):
        return int(costs_arr[key_id])

    def value_of(key_id):
        return b"v" * int(sizes_arr[key_id])

    # --- warmup phase: load the whole universe in seeded random order ----------
    for key_id in workload.warmup_order(seed=config.seed + 101).tolist():
        clock.advance(dt)
        store.set(key_bytes(key_id), value_of(key_id), cost=cost_of(key_id))

    warmup_stats = store.stats.snapshot()

    # --- measurement phase: Zipf GETs; miss -> recompute + SET ----------------
    log = RequestLog(config.num_requests)
    requests = workload.sample_requests(config.num_requests)
    get = store.get
    set_ = store.set
    for key_id in requests.tolist():
        clock.advance(dt)
        key = key_bytes(key_id)
        if get(key) is not None:
            log.record_hit()
        else:
            cost = cost_of(key_id)
            log.record_miss(cost)
            set_(key, value_of(key_id), cost=cost)

    store.check_invariants()
    measured_stats = diff_snapshots(warmup_stats, store.stats.snapshot())
    return SimResult(
        workload_id=config.spec.workload_id,
        workload_name=config.spec.name,
        policy=config.policy,
        rebalancer=config.rebalancer,
        num_keys=num_keys,
        num_requests=config.num_requests,
        capacity_items=probe_capacity,
        hit_rate=log.hit_rate,
        total_recomputation_cost=log.total_recomputation_cost,
        average_latency_us=log.average_latency_us(),
        p99_latency_us=log.percentile_latency_us(99.0),
        miss_costs=log.miss_costs(),
        store_stats=measured_stats,
        class_stats=[vars(cs) for cs in store.class_stats()],
        wall_seconds=time.perf_counter() - started,
    )
