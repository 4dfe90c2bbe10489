"""Self-tests for the benchmark's own pieces.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import json
import math
import os

import pytest

import inputs
import measure
import run
import serving
from measure import Result, Spans


# -- percentiles and sample counts ---------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 99) == 99
    assert measure.percentile(samples, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, tail", [
    (1000, 99.0),   # 10 samples beyond p99: p99 is supported
    (999, 95.0),    # 9.99 beyond p99: too thin, fall back
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (39, None),     # nothing above the median has 10 samples beyond it
])
def test_tail_is_the_highest_supported_percentile(n, tail):
    assert measure.supported_tail(n) == tail


def test_latency_metrics_carry_counts_and_name_a_thin_tail():
    res = Result("unit")
    res.put_latency("get", [i * 1e-6 for i in range(1, 1001)])
    assert res.metrics["get_p50_us"]["n"] == 1000
    assert res.metrics["get_p50_us"]["value"] == pytest.approx(500.0)
    assert res.metrics["get_p99_us"]["value"] == pytest.approx(990.0)
    assert res.metrics["get_p99_us"]["note"] == ""
    res.put_latency("set", [i * 1e-6 for i in range(1, 201)])
    assert res.metrics["set_p99_us"]["value"] == pytest.approx(190.0)
    assert "p95" in res.metrics["set_p99_us"]["note"]


def test_failed_ops_count_over_any_limit():
    samples = [100e-6] * 985 + [math.inf] * 15
    summary = measure.latency_summary(samples)
    assert summary["q"] == 99.0
    assert summary["tail"] == math.inf


# -- miss-cost accounting ------------------------------------------------------


class _DictPool:
    """A stand-in pool: a dict, answering like ``AsyncStorePool``."""

    def __init__(self, fail_keys=()):
        self.data = {}
        self.fail_keys = set(fail_keys)

    async def get(self, key):
        if key in self.fail_keys:
            raise ConnectionError("refused")
        return self.data.get(key)

    async def set(self, key, value, cost=0):
        self.data[key] = value
        return True


def test_miss_cost_per_get_on_a_hand_built_trace():
    universe = inputs.Universe(8, 32, seed=3)
    pool = _DictPool(fail_keys=[universe.keys[7]])
    stats = serving.OpStats()
    # GET 0 (miss, refill), GET 0 (hit), SET 1, GET 1 (hit), GET 2 (miss),
    # GET 7 (refused)
    trace = [(0, False), (0, False), (1, True), (1, False), (2, False), (7, False)]

    async def replay():
        for key_id, is_set in trace:
            await serving.one_op(pool, universe, key_id, is_set, True, stats,
                                 0.0, None, "pool.set")

    asyncio.run(replay())
    costs = universe.costs
    assert stats.gets == 4  # the refused GET did not complete
    assert stats.hits == 2
    assert stats.miss_cost == costs[0] + costs[2]
    assert stats.failed == 1
    assert stats.get_lat[-1] == math.inf
    # attempted ops: 5 GETs and 3 SETs (two refills and one explicit)
    assert stats.attempted == 8
    assert stats.wrong == 0


def test_wrong_bytes_are_caught():
    universe = inputs.Universe(4, 32, seed=1)
    pool = _DictPool()
    pool.data[universe.keys[1]] = universe.values[2]
    stats = serving.OpStats()
    asyncio.run(serving.one_op(pool, universe, 1, False, True, stats, 0.0, None, ""))
    assert stats.wrong == 1


# -- seeded inputs and schedules -----------------------------------------------


def test_open_loop_schedules_repeat_exactly():
    first = inputs.poisson_arrivals(4000, 1.5, seed=9)
    again = inputs.poisson_arrivals(4000, 1.5, seed=9)
    other = inputs.poisson_arrivals(4000, 1.5, seed=10)
    assert first.tolist() == again.tolist()
    assert first.tolist() != other.tolist()
    assert (first[1:] >= first[:-1]).all() and first[-1] < 1.5
    assert abs(len(first) - 6000) < 6 * math.sqrt(6000)


def test_universe_and_op_streams_repeat_exactly():
    a, b = inputs.Universe(500, 64, seed=4), inputs.Universe(500, 64, seed=4)
    assert a.keys == b.keys and a.values == b.values and a.costs == b.costs
    assert a.ops(1000, 0.05) == b.ops(1000, 0.05)
    assert a.warmup_order() == b.warmup_order()
    assert sorted(a.warmup_order()) == list(range(500))
    assert len(set(a.values)) == 500
    assert all(len(v) == 64 and v.startswith(k) for k, v in zip(a.keys, a.values))
    assert inputs.Universe(500, 64, seed=5).values != a.values


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_concurrent_children():
    assert measure.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    spans = Spans()

    async def leg():
        span = spans.start("aio.set")
        await asyncio.sleep(0.05)
        spans.stop(span)

    async def fan_out():
        root = spans.start("request", req=7)
        await asyncio.gather(leg(), leg())
        spans.stop(root)

    asyncio.run(fan_out())
    assert spans.calls("aio.set") == 2
    assert all(rec[2] == 7 for rec in spans.records)  # one id per request
    total, self_s = spans.total_s("request"), spans.self_total_s("request")
    # the legs overlap, so the root loses ~50 ms of self time, not ~100 ms
    assert total - 0.08 < self_s < total - 0.04
    assert 0.0 <= measure.unattributed_pct(spans) < 50.0


def test_span_dump_is_json_lines(tmp_path):
    spans = Spans(keep=2)
    for _ in range(3):
        spans.stop(spans.start("request", req=0))
    path = tmp_path / "spans.jsonl"
    spans.dump(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2 and {"id", "parent", "req", "name", "start_us", "end_us"} <= set(rows[0])
    assert spans.calls("request") == 3


# -- CPU placement and BENCHMARK.json ------------------------------------------


def test_cpu_plan_pins_disjoint_sets_or_nothing():
    plan = measure.CpuPlan([0, 1])
    assert plan.pinned and plan.generator.isdisjoint(plan.workers)
    assert plan.stamp()["scaling_unverified"] is True
    single = measure.CpuPlan([3])
    assert not single.pinned and single.stamp()["pinning"] == "none"
    assert measure.CpuPlan([0, 1, 2, 3]).stamp()["scaling_unverified"] is False


def test_metric_names_match_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
