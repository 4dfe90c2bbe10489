"""The two in-process workloads: ``evict-churn`` and ``tier-spill``.

``evict-churn`` runs the reproduction's own experiment loop,
``repro.sim.driver.run_simulation``, so ``core`` + ``kvstore`` + the ``sim``
loop are the whole request.  ``tier-spill`` drives a ``KVStore`` backed by a
``FlashTier`` from the benchmark's own closed loop, timing every op.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from typing import Callable, Dict, List, Optional

import measure
from inputs import Universe
from layers import (
    store_layer_metrics,
    tier_counters,
    tier_layer_metrics,
    traced_store_class,
    traced_tier_class,
)
from measure import Result, Spans, unattributed_pct

import repro.sim.driver as sim_driver
from repro.core import GDWheelPolicy
from repro.kvstore.store import KVStore
from repro.sim.driver import SimConfig, run_simulation
from repro.tier import FlashTier, TierConfig
from repro.workloads.ycsb import SINGLE_SIZE_WORKLOADS, Workload, WorkloadSpec

# -- evict-churn -----------------------------------------------------------------

#: RAM per simulated store; the universe is CHURN_UNIVERSE_MULTIPLE x its capacity
CHURN_MEMORY = 8 * 1024 * 1024
#: universe size over cache capacity: about one GET in five misses
CHURN_UNIVERSE_MULTIPLE = 4
#: requests per repetition; every repetition of one seed must agree exactly
CHURN_REQUESTS = 400_000
MIN_REPS = 3


class _MarkedWorkload(Workload):
    """Table 2's workload, stamping the moment the measured loop starts.

    ``run_simulation`` draws the request ids right before its measured
    loop, so the stamp splits set-up (materialize + warm-up) from the
    measured phase without touching the driver.
    """

    __slots__ = ()

    def sample_requests(self, count: int):
        ids = super().sample_requests(count)
        self.spec.on_measure()
        return ids


@dataclasses.dataclass(frozen=True)
class _MarkedSpec(WorkloadSpec):
    marks: list = dataclasses.field(default_factory=list, compare=False)
    hook: Optional[Callable] = dataclasses.field(default=None, compare=False)

    def materialize(self, num_keys: int, seed: int = 0) -> Workload:
        return _MarkedWorkload(spec=self, num_keys=num_keys, seed=seed)

    def on_measure(self) -> None:
        if self.hook is not None:
            self.hook()
        self.marks.append(time.perf_counter())


def churn_config(spec_id: str, memory: int, multiple: int, requests: int,
                 seed: int, hook: Optional[Callable] = None) -> SimConfig:
    """A GD-Wheel cell over Table 2 row ``spec_id`` with a fixed universe."""
    base = SINGLE_SIZE_WORKLOADS[spec_id]
    spec = _MarkedSpec(
        **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)},
        hook=hook,
    )
    capacity = sim_driver.estimate_capacity_items(
        SimConfig(spec=base, memory_limit=memory),
        base.materialize(num_keys=1024, seed=seed),
    )
    return SimConfig(
        spec=spec, policy="gd-wheel", memory_limit=memory,
        num_keys=multiple * capacity, num_requests=requests, seed=seed,
    )


def _churn_rep(config: SimConfig):
    """One ``run_simulation`` call: (result, set-up s, measured s)."""
    started = time.perf_counter()
    result = run_simulation(config)
    ended = time.perf_counter()
    (mark,) = config.spec.marks
    return result, mark - started, ended - mark


def _fingerprint(result) -> tuple:
    return (result.hit_rate, result.total_recomputation_cost,
            result.store_stats.get("evictions"), len(result.miss_costs))


def _check_churn(res: Result, result) -> None:
    res.check(0.0 < result.hit_rate < 1.0, f"hit rate {result.hit_rate} out of (0, 1)")
    res.check(
        len(result.miss_costs) == round((1.0 - result.hit_rate) * result.num_requests),
        "miss count disagrees with hit rate",
    )
    res.check(sum(result.miss_costs) == result.total_recomputation_cost,
              "miss costs do not sum to the recomputation cost")


def traced_churn(config_for: Callable[[Callable], SimConfig], spans: Spans):
    """One traced ``run_simulation`` rep: (result, per-layer dict, wall/op s).

    The driver's ``KVStore`` is swapped for the traced subclass for the
    duration of the call; ``sim.driver_self_us`` is the measured loop's
    wall time minus the time spent inside ``KVStore.get``/``set``.
    """
    policies: list = []
    marks: Dict[str, float] = {}
    traced_class = traced_store_class(spans, policies)

    class EndMarked(traced_class):
        def check_invariants(self):
            marks.setdefault("end", time.perf_counter())
            return super().check_invariants()

    def on_measure() -> None:
        # only the measured loop counts: drop the warm-up's spans
        spans.totals.clear()
        spans.records.clear()
        marks["migrations"] = sum(p.total_migrations for p in policies)
        marks["start"] = time.perf_counter()

    config = config_for(on_measure)
    original = sim_driver.KVStore
    sim_driver.KVStore = EndMarked
    try:
        result = run_simulation(config)
    finally:
        sim_driver.KVStore = original
    wall = marks["end"] - marks["start"]
    store_s = spans.total_s("kvstore.get") + spans.total_s("kvstore.set")
    stats = result.store_stats
    layers = store_layer_metrics(spans, {
        "evictions": stats.get("evictions", 0),
        "sets": stats.get("sets", 0),
        "migrations": sum(p.total_migrations for p in policies) - marks["migrations"],
    })
    layers["sim.driver_self_us"] = (wall - store_s) / result.num_requests * 1e6
    return result, layers, wall / result.num_requests


def evict_churn(seed: int, seconds: float, trace: bool, plan, workdir: str) -> Result:
    res = Result("evict-churn")
    plan.pin_generator()
    budget = seconds / 2 if trace else seconds

    def config_for(hook=None) -> SimConfig:
        return churn_config("1", CHURN_MEMORY, CHURN_UNIVERSE_MULTIPLE,
                            CHURN_REQUESTS, seed, hook)

    setups: List[float] = []
    rates: List[float] = []
    first = None
    measured = 0.0
    while measured < budget or len(rates) < MIN_REPS:
        result, setup, elapsed = _churn_rep(config_for())
        _check_churn(res, result)
        if first is None:
            first = result
        res.check(_fingerprint(result) == _fingerprint(first),
                  "repetitions of one seed disagree (eviction is not deterministic)")
        setups.append(setup)
        rates.append(result.num_requests / elapsed)
        measured += elapsed
        res.attempted += result.num_requests
    res.info.update(rep_rates=[round(r) for r in rates], universe_keys=first.num_keys,
                    capacity_items=first.capacity_items)
    res.put("setup_s", measure.median_or_none(setups), "s", len(setups),
            "materialize + warm-up, median over repetitions")
    res.put("throughput_ops", measure.median_or_none(rates), "ops/s", len(rates),
            "median over repetitions")
    res.put("hit_rate", first.hit_rate, "ratio", first.num_requests)
    res.put("miss_cost_per_get", first.total_recomputation_cost / first.num_requests,
            "cost", first.num_requests)
    res.put("error_rate", 0.0, "ratio", res.attempted)
    res.put("rss_mb", measure.peak_rss_mb(), "MiB", None, "benchmark process")
    if not trace:
        return res
    per_rep: List[Dict[str, float]] = []
    walls: List[float] = []
    measured = 0.0
    while measured < budget or not walls:
        spans = Spans()
        result, layers, wall = traced_churn(config_for, spans)
        res.check(_fingerprint(result) == _fingerprint(first),
                  "the traced run changed eviction decisions")
        per_rep.append(layers)
        walls.append(wall)
        measured += wall * result.num_requests
    res.spans = spans
    res.layers.update({
        name: measure.median_or_none([rep[name] for rep in per_rep])
        for name in per_rep[0]
    })
    traced_op = measure.median_or_none(walls)
    untraced_op = 1.0 / measure.median_or_none(rates)
    res.layers["trace.overhead_pct"] = (traced_op / untraced_op - 1.0) * 100.0
    # sim self time is the loop's remainder after the store, so the sim
    # loop's wall time is covered by construction
    res.layers["trace.unattributed_pct"] = 0.0
    res.probe = dict(universe=Universe(20_000, 256, seed), memory=CHURN_MEMORY,
                     set_share=0.0, sim_spec="1")
    return res


# -- tier-spill ------------------------------------------------------------------

#: Table 2 workload 1 shape: 256 B values, baseline costs
TIER_KEYS = 48_000
TIER_VALUE = 256
#: RAM holds 1/8 of the universe's bytes and the flash tier has room for
#: 3/4 of them: its cost-per-byte admission keeps the valuable rest, and
#: segment GC starts within the measured phase
TIER_RAM_SHARE = 8
TIER_FLASH_SHARE = 0.75
TIER_SEGMENT = 256 * 1024
TIER_SETUPS = 3


def tier_geometry(universe: Universe):
    user = universe.item_bytes()
    return max(user // TIER_RAM_SHARE, 16 * 64 * 1024), int(user * TIER_FLASH_SHARE)


def _build_tier_store(universe: Universe, directory: str, spans: Optional[Spans] = None,
                      policies: Optional[list] = None):
    """A fresh RAM store + flash tier, warmed with the whole universe."""
    shutil.rmtree(directory, ignore_errors=True)
    ram, tier_bytes = tier_geometry(universe)
    tier_class = FlashTier if spans is None else traced_tier_class(spans)
    store_class = KVStore if spans is None else traced_store_class(spans, policies)
    tier = tier_class(directory, TierConfig(capacity_bytes=tier_bytes,
                                            segment_bytes=TIER_SEGMENT))
    store = store_class(memory_limit=ram, policy_factory=GDWheelPolicy,
                        slab_size=64 * 1024, tier=tier)
    keys, values, costs = universe.keys, universe.values, universe.costs
    for key_id in universe.warmup_order():
        store.set(keys[key_id], values[key_id], costs[key_id])
    return store, tier


class _TierLoop:
    """Closed-loop GETs with a cache-aside refill on every miss."""

    def __init__(self, universe: Universe, store, res: Result) -> None:
        self.universe = universe
        self.store = store
        self.res = res
        self.get_lat: List[float] = []
        self.set_lat: List[float] = []
        self.round_rates: List[float] = []
        self.gets = 0
        self.hits = 0
        self.miss_cost = 0
        self.set_bytes = 0
        self.elapsed = 0.0

    def run(self, seconds: float, spans: Optional[Spans] = None) -> None:
        universe, res = self.universe, self.res
        keys, values, costs = universe.keys, universe.values, universe.costs
        get, set_ = self.store.get, self.store.set
        get_lat, set_lat = self.get_lat, self.set_lat
        clock = time.perf_counter
        wrong = 0
        begin = clock()
        deadline = begin + seconds
        while True:
            round_start = clock()
            round_ops = 0
            for key_id in universe.sample(4096).tolist():
                key = keys[key_id]
                root = spans.start("request", req=self.gets) if spans is not None else None
                t0 = clock()
                item = get(key)
                t1 = clock()
                get_lat.append(t1 - t0)
                round_ops += 1
                self.gets += 1
                if item is None:
                    cost = costs[key_id]
                    self.miss_cost += cost
                    value = values[key_id]
                    t0 = clock()
                    set_(key, value, cost)
                    set_lat.append(clock() - t0)
                    round_ops += 1
                    self.set_bytes += len(key) + len(value)
                else:
                    self.hits += 1
                    if item.value != values[key_id]:
                        wrong += 1
                if root is not None:
                    spans.stop(root)
            now = clock()
            self.round_rates.append(round_ops / (now - round_start))
            res.attempted += round_ops
            if now >= deadline:
                break
        self.elapsed += clock() - begin
        res.check(wrong == 0, f"{wrong} GET hits returned bytes other than the key's value")


def tier_spill(seed: int, seconds: float, trace: bool, plan, workdir: str) -> Result:
    res = Result("tier-spill")
    plan.pin_generator()
    budget = seconds / 2 if trace else seconds
    universe = Universe(TIER_KEYS, TIER_VALUE, seed)
    directory = os.path.join(workdir, "tier")
    setups: List[float] = []
    store = tier = None
    for _ in range(TIER_SETUPS):
        if tier is not None:
            tier.close()
        started = time.perf_counter()
        store, tier = _build_tier_store(universe, directory)
        setups.append(time.perf_counter() - started)
    written0 = tier_counters(tier)["written_bytes"]
    loop = _TierLoop(universe, store, res)
    loop.run(budget)
    written = tier_counters(tier)["written_bytes"] - written0
    snap = tier.snapshot()
    res.info["tier"] = {key: snap[key] for key in ("spills", "hits", "misses", "entries")}
    res.info["tier"]["gc_runs"] = snap["gc"]["runs"]
    res.info["tier"]["gc_bytes_copied"] = snap["gc"]["bytes_copied"]
    store.check_invariants()
    tier.close()
    res.put("setup_s", measure.median_or_none(setups), "s", len(setups),
            "store + tier build and warm-up, median over set-ups")
    ops = len(loop.get_lat) + len(loop.set_lat)
    res.put("throughput_ops", measure.median_or_none(loop.round_rates), "ops/s",
            ops, "median over rounds of 4096 GETs")
    res.put_latency("get", loop.get_lat)
    res.put_latency("set", loop.set_lat)
    res.put("hit_rate", loop.hits / loop.gets, "ratio", loop.gets, "tier hits count as hits")
    res.put("miss_cost_per_get", loop.miss_cost / loop.gets, "cost", loop.gets)
    res.put("write_amp", written / loop.set_bytes if loop.set_bytes else None, "ratio",
            None, "tier bytes written (spills + GC copies) / user bytes SET")
    res.put("error_rate", 0.0, "ratio", res.attempted)
    res.put("rss_mb", measure.peak_rss_mb(), "MiB", None, "benchmark process")
    if not trace:
        return res
    spans = Spans()
    policies: list = []
    store, tier = _build_tier_store(universe, os.path.join(workdir, "tier-traced"),
                                    spans, policies)
    spans.totals.clear()
    stats0 = (store.stats.evictions, store.stats.sets,
              sum(p.total_migrations for p in policies))
    tier0 = tier_counters(tier)
    traced = _TierLoop(universe, store, Result("tier-spill-traced"))
    traced.run(budget, spans)
    store.check_invariants()
    counters = {
        "evictions": store.stats.evictions - stats0[0],
        "sets": store.stats.sets - stats0[1],
        "migrations": sum(p.total_migrations for p in policies) - stats0[2],
    }
    res.layers.update(store_layer_metrics(spans, counters))
    res.layers.update(tier_layer_metrics(spans, tier, tier0))
    tier.close()
    res.problems.extend(traced.res.problems)
    traced_op = spans.total_s("request") / spans.calls("request")
    untraced_op = loop.elapsed / loop.gets
    res.layers["trace.overhead_pct"] = (traced_op / untraced_op - 1.0) * 100.0
    res.layers["trace.unattributed_pct"] = unattributed_pct(spans)
    res.probe = dict(universe=Universe(20_000, TIER_VALUE, seed),
                     memory=tier_geometry(universe)[0], set_share=0.0, sim_spec="1")
    res.spans = spans
    return res


def probe_sim(spec_id: str, seed: int) -> Dict[str, float]:
    """``sim`` rung for workloads that do not run the simulator: one short
    traced ``run_simulation`` cell over Table 2 row ``spec_id``."""

    def config_for(hook):
        return churn_config(spec_id, 4 * 1024 * 1024, CHURN_UNIVERSE_MULTIPLE,
                            100_000, seed, hook)

    _, layers, _ = traced_churn(config_for, Spans(keep=0))
    return {"sim.driver_self_us": layers["sim.driver_self_us"]}
