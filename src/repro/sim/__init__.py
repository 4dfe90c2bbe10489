"""Simulation machinery: the YCSB-style driver, latency model, metrics,
warmup calibration, per-operation cost measurement, and result containers."""

from repro.sim.calibrate import (
    calibrate_num_keys,
    capacity_items_for,
    lru_hit_rate,
)
from repro.obs.histogram import LatencyHistogram
from repro.sim.driver import (
    DEFAULT_REQUEST_INTERVAL_S,
    PAPER_REBALANCER_CHECKS,
    SimConfig,
    estimate_capacity_items,
    make_policy_factory,
    make_rebalancer,
    resolve_num_keys,
    run_simulation,
)
from repro.sim.latency import (
    LatencyModel,
    PAPER_COST_UNIT_US,
    PAPER_HIT_LATENCY_US,
    PAPER_LATENCY_MODEL,
)
from repro.sim.metrics import (
    GroupShares,
    RequestLog,
    cost_cdf,
    normalized,
    reduction_percent,
    summarize_reductions,
)
from repro.sim.opcost import (
    OpCostSample,
    RequestLatencyModel,
    measure_policy_opcost,
    sweep_opcost,
)
from repro.sim.results import Comparison, SimResult, summarize

__all__ = [
    "Comparison",
    "DEFAULT_REQUEST_INTERVAL_S",
    "GroupShares",
    "LatencyHistogram",
    "LatencyModel",
    "OpCostSample",
    "PAPER_COST_UNIT_US",
    "PAPER_HIT_LATENCY_US",
    "PAPER_LATENCY_MODEL",
    "PAPER_REBALANCER_CHECKS",
    "RequestLatencyModel",
    "RequestLog",
    "SimConfig",
    "SimResult",
    "calibrate_num_keys",
    "capacity_items_for",
    "cost_cdf",
    "estimate_capacity_items",
    "lru_hit_rate",
    "make_policy_factory",
    "make_rebalancer",
    "measure_policy_opcost",
    "normalized",
    "reduction_percent",
    "resolve_num_keys",
    "run_simulation",
    "summarize",
    "summarize_reductions",
    "sweep_opcost",
]
