"""GD-Wheel reproduction: a cost-aware replacement policy for key-value stores.

Reproduces Li & Cox, *GD-Wheel: A Cost-Aware Replacement Policy for
Key-Value Stores* (EuroSys 2015) as a pure-Python system:

* :mod:`repro.core` — the GD-Wheel policy (Hierarchical Cost Wheels) and
  every comparator: GD-PQ, naive GreedyDual, LRU, CLOCK, random, GDS/GDSF,
  CAMP, 2Q, ARC, LRU-K, and offline bounds.
* :mod:`repro.kvstore` — a memcached-like store: a ``dict`` key index, slab
  allocator, cost-carrying items, and the original + cost-aware slab
  rebalancers.
* :mod:`repro.protocol` — the memcached text protocol with the paper's
  cost extension, plus in-memory and TCP servers/clients.
* :mod:`repro.workloads` — YCSB-style Zipf workloads and the paper's
  Table 1/2/3 suite.
* :mod:`repro.sim` — the warmup/measurement driver, latency model, and
  metrics.
* :mod:`repro.experiments` — regenerates every evaluation table and figure.

Quickstart::

    from repro import GDWheelPolicy, KVStore

    store = KVStore(memory_limit=64 * 1024 * 1024,
                    policy_factory=GDWheelPolicy)
    store.set(b"user:42", b"rendered-profile", cost=240)
    item = store.get(b"user:42")
"""

from repro.core import (
    CAMPPolicy,
    ClockPolicy,
    GDPQPolicy,
    GDSFPolicy,
    GDSPolicy,
    GDWheelPolicy,
    LRUPolicy,
    NaiveGreedyDual,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.kvstore import (
    CostAwareRebalancer,
    Item,
    KVStore,
    NullRebalancer,
    OriginalRebalancer,
    SimClock,
)

__version__ = "1.0.0"

__all__ = [
    "CAMPPolicy",
    "ClockPolicy",
    "CostAwareRebalancer",
    "GDPQPolicy",
    "GDSFPolicy",
    "GDSPolicy",
    "GDWheelPolicy",
    "Item",
    "KVStore",
    "LRUPolicy",
    "NaiveGreedyDual",
    "NullRebalancer",
    "OriginalRebalancer",
    "RandomPolicy",
    "ReplacementPolicy",
    "SimClock",
    "__version__",
    "make_policy",
]
