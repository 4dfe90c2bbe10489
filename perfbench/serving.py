"""The two serving workloads, ``hot-get`` and ``replica-write``, and the
network probe that measures the ``aio``/``pool``/``replica`` rungs for the
workloads whose own traffic does not cross them.

Fleets start through ``ShardSupervisor`` and clients connect through
``connect_pool`` (or, in traced runs, the same pool classes built over
traced clients).  The generator process and the worker process(es) run on
disjoint CPUs; every op is timed on its own, and every failed or refused op
counts in ``error_rate`` and as over any latency limit.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import time
from typing import Dict, List, Optional

import measure
from inputs import Universe, poisson_arrivals
from layers import traced_client_class
from measure import Result, Spans, unattributed_pct

from repro.aio.client import AsyncStoreClient
from repro.aio.pool import AsyncStorePool
from repro.kvstore.item import ITEM_HEADER_SIZE
from repro.kvstore.slab import SlabAllocator
from repro.protocol.commands import ProtocolError
from repro.replica.pool import ReplicatedStorePool
from repro.shard.supervisor import ShardSupervisor

#: exceptions a request can end in; each is one failed op
OP_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError, ProtocolError)
#: connections per fleet: nproc of the 2-CPU reference box
CONNECTIONS = 2
ROUND_S = 1.0
SETUPS = 3
WARM_BATCH = 500

# -- hot-get ---------------------------------------------------------------------

HOT_KEYS = 20_000
HOT_VALUE = 64
HOT_MEMORY = 64 * 1024 * 1024
HOT_SET_SHARE = 0.05
#: offered rates (ops/s) of the open-loop ladder, and the named mid rung
LADDER = (2000, 4000, 6000, 8000, 10000, 12000, 14000)
NAMED_RATE = 6000
#: a rung holds when GET p99 (from due time) stays within this limit ...
#: (on the shared 2-CPU reference box a bare spin loop sees 3-9 ms
#: preemption gaps several times a second, which sets the floor of any p99)
GET_P99_LIMIT_US = 10000.0
#: ... and the generator launched requests no later than this (p99); a
#: rung whose generator ran later is invalid.  On a shared 2-CPU box the
#: generator alone shows 0.3-1.3 ms p99 lateness from preemption.
LAG_BOUND_MS = 2.0
#: share of a run spent in the closed-loop capacity phase
CLOSED_SHARE = 0.7

# -- replica-write ---------------------------------------------------------------

REPLICA_VALUE = 256
REPLICA_MEMORY = 4 * 1024 * 1024
REPLICA_SLAB = 256 * 1024
#: universe over per-member capacity
REPLICA_MULTIPLE = 2
REPLICA_SET_SHARE = 0.5


def capacity_items(memory: int, slab_size: int, value_size: int) -> int:
    """Items of one size a store of ``memory`` bytes holds."""
    allocator = SlabAllocator(memory_limit=memory, slab_size=slab_size)
    chunk = allocator.class_for_size(ITEM_HEADER_SIZE + 16 + value_size).chunk_size
    return (memory // slab_size) * (slab_size // chunk)


@contextlib.contextmanager
def fleet(plan, replication: int, memory: int, slab_size: int = 1024 * 1024):
    """One shard group of ``replication`` workers, pinned off the generator."""
    sup = ShardSupervisor(num_shards=1, replication=replication,
                          memory_limit=memory, slab_size=slab_size)
    sup.start()
    try:
        plan.pin_workers(pid for pid in sup.pids().values() if pid)
        yield sup
    finally:
        sup.stop()


def worker_rss_mb(sup) -> float:
    """Summed peak RSS of the fleet's worker processes."""
    return sum(measure.peak_rss_mb(pid) for pid in sup.pids().values() if pid)


async def warm(pool, universe: Universe) -> None:
    """SET the whole universe, in the seeded warm-up order, batch by batch."""
    keys, values, costs = universe.keys, universe.values, universe.costs
    order = universe.warmup_order()
    for start in range(0, len(order), WARM_BATCH):
        batch = [(keys[i], values[i], costs[i]) for i in order[start:start + WARM_BATCH]]
        stored = await pool.multi_set(batch)
        if stored != len(batch):
            raise RuntimeError(f"warm-up stored {stored} of {len(batch)}")


class OpStats:
    """Per-op accounting for one phase: latencies by op type, hits, costs."""

    def __init__(self) -> None:
        self.get_lat: List[float] = []
        self.set_lat: List[float] = []
        self.gets = 0
        self.hits = 0
        self.miss_cost = 0
        self.failed = 0
        self.wrong = 0
        self.done = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.get_lat) + len(self.set_lat)


async def one_op(pool, universe: Universe, key_id: int, is_set: bool, refill: bool,
                 stats: OpStats, due: float, spans: Optional[Spans],
                 set_span: str) -> None:
    """One request; latency runs from ``due`` (the op's start in closed
    loop, its scheduled time in open loop).  A failed op records ``inf``."""
    key = universe.keys[key_id]
    clock = time.perf_counter
    root = spans.start("request") if spans is not None else None
    try:
        if not is_set:
            span = spans.start("pool.get") if spans is not None else None
            try:
                value = await pool.get(key)
            except OP_ERRORS:
                stats.failed += 1
                stats.get_lat.append(math.inf)
                return
            finally:
                if span is not None:
                    spans.stop(span)
            stats.get_lat.append(clock() - due)
            stats.gets += 1
            if value is not None:
                stats.hits += 1
                if value != universe.values[key_id]:
                    stats.wrong += 1
                return
            stats.miss_cost += universe.costs[key_id]
            if not refill:
                return
            due = clock()
        span = spans.start(set_span) if spans is not None else None
        try:
            stored = await pool.set(key, universe.values[key_id], universe.costs[key_id])
        except OP_ERRORS:
            stored = None
        finally:
            if span is not None:
                spans.stop(span)
        if stored:
            stats.set_lat.append(clock() - due)
        else:
            stats.failed += 1
            stats.set_lat.append(math.inf)
    finally:
        stats.done += 1
        if root is not None:
            spans.stop(root)


async def closed_loop(pool, universe: Universe, set_share: float, seconds: float,
                      refill: bool, spans: Optional[Spans] = None,
                      set_span: str = "pool.set"):
    """``CONNECTIONS`` users, each issuing its next op when the last ends.

    Returns the phase's :class:`OpStats` and the ops/s of each ~1 s round.
    """
    stats = OpStats()
    clock = time.perf_counter
    ops = universe.ops(200_000, set_share)
    begin = clock()
    deadline = begin + seconds

    async def user(offset: int) -> None:
        index = offset
        while clock() < deadline:
            key_id, is_set = ops[index % len(ops)]
            index += CONNECTIONS
            await one_op(pool, universe, key_id, is_set, refill, stats, clock(),
                         spans, set_span)

    async def ticker(rounds: List[float]) -> None:
        last, last_done = clock(), 0
        while clock() < deadline:
            await asyncio.sleep(min(ROUND_S, max(0.0, deadline - clock())))
            now, done = clock(), stats.attempted - stats.failed
            if now - last >= ROUND_S / 2:
                rounds.append((done - last_done) / (now - last))
            last, last_done = now, done

    rounds: List[float] = []
    await asyncio.gather(ticker(rounds), *(user(i) for i in range(CONNECTIONS)))
    stats.elapsed = clock() - begin
    return stats, rounds


async def open_step(pool, universe: Universe, rate: float, duration: float, seed: int,
                    stats: OpStats) -> Dict[str, float]:
    """One open-loop rung: Poisson arrivals at ``rate`` for ``duration``,
    recorded into ``stats``, which must be fresh.

    At each wake-up the generator launches every request already due, and
    each request is timed from its due time.  It sleeps through long gaps
    but spins (yielding to the loop) through the last ~4 ms, because epoll's
    1 ms timer granularity and wake-up delays would otherwise add up to
    milliseconds of generator lateness to every latency.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    due = poisson_arrivals(rate, duration, seed).tolist()
    ops = universe.ops(len(due), HOT_SET_SHARE)
    tasks = set()
    lags: List[float] = []
    backlog: List[int] = []
    start = clock() + 0.002
    launched = 0
    while launched < len(due):
        now = clock()
        while launched < len(due) and start + due[launched] <= now:
            at = start + due[launched]
            key_id, is_set = ops[launched]
            task = loop.create_task(
                one_op(pool, universe, key_id, is_set, False, stats, at, None, "")
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            lags.append(now - at)
            launched += 1
        backlog.append(launched - stats.done)
        if launched < len(due):
            wait = start + due[launched] - clock()
            await asyncio.sleep(wait - 0.004 if wait > 0.005 else 0)
    end_backlog = launched - stats.done
    if tasks:
        await asyncio.wait(set(tasks), timeout=5.0)
    for task in list(tasks):
        task.cancel()
    lags.sort()
    quarter = max(1, len(backlog) // 4)
    early = sum(backlog[:quarter]) / quarter
    late = sum(backlog[-quarter:]) / quarter
    return {
        "offered": len(due) / duration,
        "lag_p99_ms": measure.percentile(lags, 99.0) * 1e3 if lags else 0.0,
        "backlog_growing": float(late > 2 * early + 2 or end_backlog > rate * 0.01 + 4),
        "unfinished": float(len(tasks)),
    }


def _put_phase(res: Result, stats: OpStats) -> None:
    res.attempted += stats.attempted
    res.failed += stats.failed
    res.check(stats.wrong == 0,
              f"{stats.wrong} GET hits returned bytes other than the key's value")


def hot_get(seed: int, seconds: float, trace: bool, plan, workdir: str) -> Result:
    res = Result("hot-get")
    plan.pin_generator()
    universe = Universe(HOT_KEYS, HOT_VALUE, seed)
    # the inputs live for the whole run: keep them out of the generator's
    # garbage-collection passes
    gc.freeze()
    setups: List[float] = []
    nsetups = SETUPS if not trace else 1
    for attempt in range(nsetups):
        started = time.perf_counter()
        with fleet(plan, 1, HOT_MEMORY) as sup:
            asyncio.run(_connect_and_warm(sup, universe))
            setups.append(time.perf_counter() - started)
            if attempt == nsetups - 1:
                asyncio.run(_hot_measure(sup, universe, seed, seconds, trace, res))
                res.put("rss_mb", worker_rss_mb(sup), "MiB", None, "the worker process")
    res.put("setup_s", measure.median_or_none(setups), "s", len(setups),
            "fleet start + connect + warm-up, median over set-ups")
    if trace:
        res.probe = dict(universe=Universe(20_000, HOT_VALUE, seed), memory=HOT_MEMORY,
                         set_share=HOT_SET_SHARE, sim_spec="6")
    return res


async def _connect_and_warm(sup, universe: Universe) -> None:
    pool = sup.connect_pool(pool_size=CONNECTIONS)
    try:
        await warm(pool, universe)
    finally:
        await pool.aclose()


async def _hot_measure(sup, universe: Universe, seed: int, seconds: float, trace: bool,
                       res: Result) -> None:
    pool = sup.connect_pool(pool_size=CONNECTIONS)
    try:
        closed_s = seconds * CLOSED_SHARE
        closed, rounds = await closed_loop(pool, universe, HOT_SET_SHARE, closed_s,
                                           refill=False)
        _put_phase(res, closed)
        res.info["round_rates"] = [round(r) for r in rounds]
        res.put("throughput_ops", measure.median_or_none(rounds), "ops/s",
                closed.attempted, f"closed loop, {CONNECTIONS} connections, median of rounds")
        hits, gets = closed.hits, closed.gets
        ladder_s = seconds - closed_s
        if trace:
            # the traced run keeps one rung: the named rate, for gen.lag_ms
            steps = [NAMED_RATE]
            ladder_s = min(ladder_s, 2.0)
        else:
            steps = list(LADDER)
        step_s = ladder_s / len(steps)
        max_rate = None
        rungs = []
        for index, rate in enumerate(steps):
            stats = OpStats()
            step = await open_step(pool, universe, rate, step_s, seed * 1000 + index, stats)
            _put_phase(res, stats)
            hits += stats.hits
            gets += stats.gets
            tail = measure.latency_summary(stats.get_lat)
            holds = (
                tail.get("tail", math.inf) * 1e6 <= GET_P99_LIMIT_US
                and step["lag_p99_ms"] <= LAG_BOUND_MS
                and not step["backlog_growing"]
                and not step["unfinished"]
            )
            rungs.append((rate, tail, step, holds))
            if rate == NAMED_RATE:
                note = f"open loop at {NAMED_RATE} ops/s, from due time"
                res.put_latency("get", stats.get_lat, note)
                res.put_latency("set", stats.set_lat, note)
                res.layers["gen.lag_ms"] = step["lag_p99_ms"]
            if holds:
                max_rate = rate
        res.info["ladder"] = [
            {"rate": rate, "get_tail_us": round(tail.get("tail", math.inf) * 1e6, 1),
             "q": tail.get("q"), "n": tail["n"], "lag_p99_ms": round(step["lag_p99_ms"], 3),
             "backlog_growing": bool(step["backlog_growing"]), "holds": holds}
            for rate, tail, step, holds in rungs
        ]
        if not trace:
            res.put("max_rate_ops", max_rate, "ops/s", len(rungs),
                    f"GET p99 <= {GET_P99_LIMIT_US:g} us, lag p99 <= {LAG_BOUND_MS} ms, "
                    "no backlog growth")
        res.put("hit_rate", hits / gets if gets else None, "ratio", gets)
        res.put("error_rate", res.failed / res.attempted, "ratio", res.attempted)
        if trace:
            await _trace_closed(sup, universe, closed_s, closed, res, 1)
    finally:
        await pool.aclose()


async def _trace_closed(sup, universe: Universe, seconds: float, untraced: OpStats,
                        res: Result, replication: int) -> None:
    """The traced closed-loop phase: spans around every pool and client call."""
    spans = Spans()
    clients = _traced_clients(sup, spans)
    if replication == 1:
        pool = AsyncStorePool(clients, replicas=sup.replicas)
        set_span, set_share = "pool.set", HOT_SET_SHARE
    else:
        pool = ReplicatedStorePool({sup.group_names[0]: clients}, replicas=sup.replicas)
        set_span, set_share = "replica.set", REPLICA_SET_SHARE
    try:
        traced, _ = await closed_loop(pool, universe, set_share, seconds,
                                      refill=replication > 1, spans=spans,
                                      set_span=set_span)
        _put_phase(res, traced)
        res.layers.update(await _client_counters(pool.clients))
        if replication > 1:
            res.layers["replica.read_failovers"] = pool.replica_failovers
    finally:
        await pool.aclose()
    res.layers.update(network_layer_metrics(spans))
    traced_op = spans.total_s("request") / spans.calls("request")
    untraced_op = untraced.elapsed * CONNECTIONS / untraced.done
    res.layers["trace.overhead_pct"] = (traced_op / untraced_op - 1.0) * 100.0
    res.layers["trace.unattributed_pct"] = unattributed_pct(spans)
    res.spans = spans


def _traced_clients(sup, spans: Spans) -> Dict[str, object]:
    client_class = traced_client_class(spans)
    members = sup.group_endpoints()[sup.group_names[0]]
    return {
        name: client_class(host, port, pool_size=CONNECTIONS)
        for name, (host, port) in members.items()
    }


async def _client_counters(clients) -> Dict[str, float]:
    retries = sum(c.request_retries + c.connect_retries for c in clients.values())
    pauses = 0
    for client in clients.values():
        metrics = await client.stats("metrics")
        pauses += int(metrics.get("server_write_pauses_total{transport=async}", 0))
    return {"aio.retries": retries, "aio.write_pauses": pauses}


def network_layer_metrics(spans: Spans) -> Dict[str, object]:
    """``aio``/``pool``/``replica`` rungs from client- and pool-side spans,
    plus the ``aio_calls`` counts the derived ``aio.self_us`` needs."""
    out: Dict[str, float] = {}
    for name in ("aio.get", "aio.set"):
        if spans.calls(name):
            out[name + "_us"] = spans.mean_us(name)
    routed = spans.calls("pool.get") + spans.calls("pool.set")
    if routed:
        out["pool.route_us"] = (spans.self_total_s("pool.get")
                                + spans.self_total_s("pool.set")) / routed * 1e6
    if spans.calls("replica.set"):
        out["replica.set_us"] = spans.mean_us("replica.set")
        out["replica.fanout_self_us"] = spans.self_us("replica.set")
    # call counts, to weigh aio.self_us by the op mix the round trips saw
    out["aio_calls"] = (spans.calls("aio.get"), spans.calls("aio.set"))
    return out


def replica_write(seed: int, seconds: float, trace: bool, plan, workdir: str) -> Result:
    res = Result("replica-write")
    plan.pin_generator()
    capacity = capacity_items(REPLICA_MEMORY, REPLICA_SLAB, REPLICA_VALUE)
    universe = Universe(REPLICA_MULTIPLE * capacity, REPLICA_VALUE, seed)
    gc.freeze()
    setups: List[float] = []
    nsetups = SETUPS if not trace else 1
    for attempt in range(nsetups):
        started = time.perf_counter()
        with fleet(plan, 2, REPLICA_MEMORY, REPLICA_SLAB) as sup:
            asyncio.run(_connect_and_warm(sup, universe))
            setups.append(time.perf_counter() - started)
            res.check(sup.replicas_converged(),
                      "replica digests differ after the W=R warm-up")
            if attempt == nsetups - 1:
                asyncio.run(_replica_measure(sup, universe, seconds, trace, res))
                res.put("rss_mb", worker_rss_mb(sup), "MiB", None,
                        "both members of the group, summed")
    res.put("setup_s", measure.median_or_none(setups), "s", len(setups),
            "fleet start + connect + W=R warm-up, median over set-ups")
    res.info["universe_keys"] = universe.num_keys
    res.info["capacity_items_per_member"] = capacity
    if trace:
        res.probe = dict(universe=Universe(20_000, REPLICA_VALUE, seed),
                         memory=REPLICA_MEMORY, set_share=REPLICA_SET_SHARE, sim_spec="1")
    return res


async def _replica_measure(sup, universe: Universe, seconds: float, trace: bool,
                           res: Result) -> None:
    pool = sup.connect_pool(pool_size=CONNECTIONS)
    try:
        budget = seconds / 2 if trace else seconds
        stats, rounds = await closed_loop(pool, universe, REPLICA_SET_SHARE, budget,
                                          refill=True)
        await pool.drain(timeout=5.0)
        _put_phase(res, stats)
        res.info["round_rates"] = [round(r) for r in rounds]
        res.put("throughput_ops", measure.median_or_none(rounds), "ops/s",
                stats.attempted, f"closed loop, {CONNECTIONS} connections, median of rounds")
        res.put_latency("get", stats.get_lat)
        res.put_latency("set", stats.set_lat, "quorum SETs at W=R=2, refills included")
        res.put("hit_rate", stats.hits / stats.gets if stats.gets else None, "ratio",
                stats.gets)
        res.put("miss_cost_per_get", stats.miss_cost / stats.gets if stats.gets else None,
                "cost", stats.gets)
        res.put("error_rate", res.failed / res.attempted, "ratio", res.attempted)
        await _check_members_agree(sup, universe, res)
        # informational: reads touch only the primary, so under eviction
        # pressure the members' key sets may legitimately differ
        res.info["digests_converged_after_run"] = await asyncio.get_running_loop(
        ).run_in_executor(None, sup.replicas_converged)
        if trace:
            await _trace_closed(sup, universe, budget, stats, res, 2)
    finally:
        await pool.aclose()


async def _check_members_agree(sup, universe: Universe, res: Result) -> None:
    """Every key both members hold has the same bytes, and they are the key's.

    Reads touch only the key's primary member, so under eviction pressure
    the members legitimately hold different key sets; what must never
    differ is the value of a key both hold.
    """
    members = sup.group_endpoints()[sup.group_names[0]]
    held = []
    for host, port in members.values():
        client = AsyncStoreClient(host, port, pool_size=1)
        try:
            found: Dict[bytes, bytes] = {}
            keys = universe.keys
            for start in range(0, len(keys), WARM_BATCH):
                found.update(await client.get_many(keys[start:start + WARM_BATCH]))
            held.append(found)
        finally:
            await client.aclose()
    by_key = dict(zip(universe.keys, universe.values))
    wrong = sum(1 for found in held for key, value in found.items() if by_key[key] != value)
    common = set(held[0]).intersection(*held[1:])
    differ = sum(1 for key in common if len({found[key] for found in held}) > 1)
    res.check(wrong == 0, f"{wrong} member-held values differ from the written bytes")
    res.check(differ == 0, f"{differ} keys hold different bytes on different members")
    res.info["keys_on_every_member"] = len(common)


# -- network probe ---------------------------------------------------------------

#: per-member memory of the probe fleet: it holds the whole probe universe
PROBE_MEMORY = 64 * 1024 * 1024


def probe_network(universe: Universe, set_share: float, plan, seconds: float,
                  seed: int) -> Dict[str, float]:
    """``aio``, ``pool`` (R=1 route), ``replica`` and ``gen`` rungs on a probe
    fleet of one R=2 group, for workloads whose traffic lacks them."""
    with fleet(plan, 2, PROBE_MEMORY) as sup:
        return asyncio.run(_probe_network(sup, universe, set_share, seconds, seed))


async def _probe_network(sup, universe: Universe, set_share: float, seconds: float,
                         seed: int) -> Dict[str, float]:
    group = sup.group_names[0]
    first, (host, port) = next(iter(sup.group_endpoints()[group].items()))
    out: Dict[str, float] = {}
    # R=1 rung: the client round trip and the pool's routing on top of it
    spans = Spans(keep=0)
    clients = {first: traced_client_class(spans)(host, port, pool_size=CONNECTIONS)}
    routed = AsyncStorePool(clients, replicas=sup.replicas)
    replicated = sup.connect_pool(pool_size=CONNECTIONS)
    try:
        await warm(replicated, universe)
        stats, _ = await closed_loop(routed, universe, set_share, seconds / 3,
                                     refill=True, spans=spans)
        _check_probe(stats)
        out.update(network_layer_metrics(spans))
        out.update(await _client_counters(clients))
        # the open-loop generator's lateness at the named rate
        stats = OpStats()
        step = await open_step(routed, universe, NAMED_RATE, seconds / 3, seed, stats)
        _check_probe(stats)
        out["gen.lag_ms"] = step["lag_p99_ms"]
        # R=2 rung: quorum SETs fanned out to both members
        spans = Spans(keep=0)
        await replicated.aclose()
        replicated = ReplicatedStorePool({group: _traced_clients(sup, spans)},
                                         replicas=sup.replicas)
        stats, _ = await closed_loop(replicated, universe, REPLICA_SET_SHARE, seconds / 3,
                                     refill=True, spans=spans, set_span="replica.set")
        await replicated.drain(timeout=5.0)
        _check_probe(stats)
        out["replica.set_us"] = spans.mean_us("replica.set")
        out["replica.fanout_self_us"] = spans.self_us("replica.set")
        out["replica.read_failovers"] = replicated.replica_failovers
        return out
    finally:
        await routed.aclose()
        await replicated.aclose()


def _check_probe(stats: OpStats) -> None:
    if stats.failed or stats.wrong:
        raise RuntimeError(
            f"network probe: {stats.failed} failed ops, {stats.wrong} wrong values"
        )
