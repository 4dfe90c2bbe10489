"""Traced stand-ins for each layer's public calls, plus in-process probes.

Every span is opened by benchmark code around a public call: a policy
wrapper handed to ``KVStore`` through ``policy_factory``, ``KVStore`` and
``FlashTier`` subclasses whose ``get``/``set``/``spill``/``lookup`` call the
real method inside a span, and an ``AsyncStoreClient`` subclass doing the
same for ``get``/``set``.  Nothing inside ``src/`` is edited or patched
beyond handing these objects to the program's own constructors.

A workload's traced run fills the per-layer metrics of the layers its own
traffic crosses.  The probes here measure the remaining rungs on the same
workload's keys, values and costs, so every traced run reports the whole
ladder (see NOTES.md, "Per-layer metrics").
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from measure import Spans

from repro.aio.client import AsyncStoreClient
from repro.kvstore.store import KVStore
from repro.protocol.commands import GetCommand, StoreCommand
from repro.protocol.server import LoopbackConnection, StoreServer
from repro.protocol.text import encode_command
from repro.shard.worker import ShardConfig, build_store
from repro.tier.tier import FlashTier


class TracedPolicy:
    """Times ``insert``/``touch``/``select_victim`` of a real policy."""

    def __init__(self, inner, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans

    def insert(self, entry, cost=0):
        span = self._spans.start("core.insert")
        try:
            return self._inner.insert(entry, cost)
        finally:
            self._spans.stop(span)

    def touch(self, entry):
        span = self._spans.start("core.touch")
        try:
            return self._inner.touch(entry)
        finally:
            self._spans.stop(span)

    def select_victim(self):
        span = self._spans.start("core.select_victim")
        try:
            return self._inner.select_victim()
        finally:
            self._spans.stop(span)

    def __len__(self) -> int:
        return len(self._inner)

    def __bool__(self) -> bool:
        return bool(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def traced_store_class(spans: Spans, policies: list):
    """A ``KVStore`` subclass timing ``get``/``set`` and wrapping the policy.

    Every policy the store builds is appended to ``policies`` so the
    caller can read counters such as GD-Wheel's ``total_migrations``.
    """

    class TracedKVStore(KVStore):
        def __init__(self, *args, policy_factory: Callable, **kwargs) -> None:
            def factory():
                inner = policy_factory()
                policies.append(inner)
                return TracedPolicy(inner, spans)

            super().__init__(*args, policy_factory=factory, **kwargs)

        def get(self, key):
            span = spans.start("kvstore.get")
            try:
                return KVStore.get(self, key)
            finally:
                spans.stop(span)

        def set(self, key, value, cost=0, *args, **kwargs):
            span = spans.start("kvstore.set")
            try:
                return KVStore.set(self, key, value, cost, *args, **kwargs)
            finally:
                spans.stop(span)

    return TracedKVStore


def traced_tier_class(spans: Spans):
    """A ``FlashTier`` subclass timing ``spill`` and ``lookup``."""

    class TracedFlashTier(FlashTier):
        def spill(self, *args, **kwargs):
            span = spans.start("tier.spill")
            try:
                return FlashTier.spill(self, *args, **kwargs)
            finally:
                spans.stop(span)

        def lookup(self, key):
            span = spans.start("tier.lookup")
            try:
                return FlashTier.lookup(self, key)
            finally:
                spans.stop(span)

    return TracedFlashTier


def traced_client_class(spans: Spans):
    """An ``AsyncStoreClient`` subclass timing ``get``/``set`` round trips."""

    class TracedClient(AsyncStoreClient):
        async def get(self, key):
            span = spans.start("aio.get")
            try:
                return await AsyncStoreClient.get(self, key)
            finally:
                spans.stop(span)

        async def set(self, key, value, cost=0, exptime=0, flags=0, version=0):
            span = spans.start("aio.set")
            try:
                return await AsyncStoreClient.set(
                    self, key, value, cost=cost, exptime=exptime,
                    flags=flags, version=version,
                )
            finally:
                spans.stop(span)

    return TracedClient


def store_layer_metrics(spans: Spans, counters: Dict[str, float]) -> Dict[str, float]:
    """``core.*`` and ``kvstore.*`` from spans plus store/policy counters."""
    evictions = counters["evictions"]
    return {
        "core.insert_us": spans.mean_us("core.insert"),
        "core.touch_us": spans.mean_us("core.touch"),
        "core.select_victim_us": spans.mean_us("core.select_victim"),
        "core.evictions_per_set": evictions / counters["sets"] if counters["sets"] else 0.0,
        "core.migrations_per_eviction": (
            counters["migrations"] / evictions if evictions else 0.0
        ),
        "kvstore.get_us": spans.mean_us("kvstore.get"),
        "kvstore.set_us": spans.mean_us("kvstore.set"),
    }


def tier_counters(tier) -> Dict[str, int]:
    """The tier counters the benchmark reads, as one flat snapshot."""
    snap = tier.snapshot()
    return {
        "hits": snap["hits"],
        "lookups": snap["hits"] + snap["misses"],
        "gc_bytes": snap["gc"]["bytes_copied"],
        "written_bytes": snap["spilled_bytes"] + snap["gc"]["bytes_copied"],
    }


def tier_layer_metrics(spans: Spans, tier, before: Dict[str, int]) -> Dict[str, float]:
    """``tier.*`` over the phase since the ``before`` counters."""
    now = tier_counters(tier)
    lookups = now["lookups"] - before["lookups"]
    return {
        "tier.spill_us": spans.mean_us("tier.spill"),
        "tier.lookup_us": spans.mean_us("tier.lookup"),
        "tier.hit_ratio": (now["hits"] - before["hits"]) / lookups if lookups else 0.0,
        "tier.gc_bytes": now["gc_bytes"] - before["gc_bytes"],
    }


# -- in-process probes -----------------------------------------------------------


def _replay(universe, ops, seconds: float, step: Callable[[int, bool], None]) -> int:
    """Call ``step(key_id, is_set)`` over ``ops`` (cycled) for ``seconds``."""
    deadline = time.perf_counter() + seconds
    index = 0
    nops = len(ops)
    while True:
        key_id, is_set = ops[index % nops]
        index += 1
        step(key_id, is_set)
        if index % 256 == 0 and time.perf_counter() >= deadline:
            return index


def probe_store(universe, ops, memory_limit: int, seconds: float) -> Dict[str, float]:
    """``core`` and ``kvstore`` rungs: ``ops`` on a traced GD-Wheel store.

    ``ops`` is a sequence of ``(key_id, is_set)``; a GET miss refills the
    key (cache-aside), as every workload does.
    """
    from repro.core import GDWheelPolicy

    spans = Spans(keep=0)
    policies: list = []
    store = traced_store_class(spans, policies)(
        memory_limit=memory_limit, policy_factory=GDWheelPolicy, slab_size=64 * 1024,
    )
    keys, values, costs = universe.keys, universe.values, universe.costs
    for key_id in universe.warmup_order():
        store.set(keys[key_id], values[key_id], costs[key_id])
    spans.totals.clear()
    before = (store.stats.evictions, store.stats.sets,
              sum(p.total_migrations for p in policies))

    def step(key_id: int, is_set: bool) -> None:
        key = keys[key_id]
        item = None if is_set else store.get(key)
        if item is None:
            store.set(key, values[key_id], costs[key_id])
        elif item.value != values[key_id]:
            raise AssertionError("store probe: GET returned a wrong value")

    _replay(universe, ops, seconds, step)
    store.check_invariants()
    return store_layer_metrics(spans, {
        "evictions": store.stats.evictions - before[0],
        "sets": store.stats.sets - before[1],
        "migrations": sum(p.total_migrations for p in policies) - before[2],
    })


def probe_protocol(universe, ops, memory_limit: int, seconds: float) -> Dict[str, float]:
    """``protocol`` rung: the request frames the client puts on the wire,
    fed through ``LoopbackConnection.send`` on a store built exactly as a
    shard worker builds its own."""
    spans = Spans(keep=0)
    store = build_store(ShardConfig(name="probe", memory_limit=memory_limit))
    connection = LoopbackConnection(StoreServer(store))
    keys, values, costs = universe.keys, universe.values, universe.costs

    def set_frame(key_id: int) -> bytes:
        return encode_command(StoreCommand(
            verb="set", key=keys[key_id], flags=0, exptime=0,
            value=values[key_id], cost=costs[key_id],
        ))

    for key_id in universe.warmup_order():
        if connection.send(set_frame(key_id)) != b"STORED\r\n":
            raise AssertionError("protocol probe: warm-up SET not STORED")
    moved = [0, 0]

    def step(key_id: int, is_set: bool) -> None:
        if is_set:
            frame = set_frame(key_id)
            span = spans.start("protocol.set")
            reply = connection.send(frame)
            spans.stop(span)
            if reply != b"STORED\r\n":
                raise AssertionError(f"protocol probe: SET answered {reply!r}")
        else:
            frame = encode_command(GetCommand(keys=(keys[key_id],)))
            span = spans.start("protocol.get")
            reply = connection.send(frame)
            spans.stop(span)
            if reply != b"END\r\n" and values[key_id] not in reply:
                raise AssertionError("protocol probe: GET returned a wrong value")
            if reply == b"END\r\n":
                # a miss refills, as the workloads' clients do
                refill = set_frame(key_id)
                if connection.send(refill) != b"STORED\r\n":
                    raise AssertionError("protocol probe: refill not STORED")
        moved[0] += len(frame) + len(reply)
        moved[1] += 1

    _replay(universe, ops, seconds, step)
    store.check_invariants()
    return {
        "protocol.get_us": spans.mean_us("protocol.get"),
        "protocol.set_us": spans.mean_us("protocol.set"),
        "protocol.bytes_per_op": moved[0] / moved[1],
    }


def probe_tier(universe, ops, ram_bytes: int, tier_bytes: int, directory: str,
               seconds: float) -> Dict[str, float]:
    """``tier`` rung: a RAM store spilling to a traced flash tier."""
    from repro.core import GDWheelPolicy
    from repro.tier import TierConfig

    spans = Spans(keep=0)
    tier = traced_tier_class(spans)(
        directory, TierConfig(capacity_bytes=tier_bytes, segment_bytes=256 * 1024)
    )
    try:
        store = KVStore(memory_limit=ram_bytes, policy_factory=GDWheelPolicy,
                        slab_size=64 * 1024, tier=tier)
        keys, values, costs = universe.keys, universe.values, universe.costs
        for key_id in universe.warmup_order():
            store.set(keys[key_id], values[key_id], costs[key_id])
        spans.totals.clear()
        before = tier_counters(tier)

        def step(key_id: int, is_set: bool) -> None:
            key = keys[key_id]
            item = None if is_set else store.get(key)
            if item is None:
                store.set(key, values[key_id], costs[key_id])
            elif item.value != values[key_id]:
                raise AssertionError("tier probe: GET returned a wrong value")

        _replay(universe, ops, seconds, step)
        store.check_invariants()
        return tier_layer_metrics(spans, tier, before)
    finally:
        tier.close()
