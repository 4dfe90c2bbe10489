"""``repro.replica`` — per-shard replica groups over the serving stack.

A single-copy shard that dies loses its keyspace until clients repopulate
it; under GD-Wheel's cost model that is not a uniform tax but a
recomputation storm concentrated on exactly the high-cost working set the
policy was built to protect.  This package layers replication onto the
one supervisor/router path (an unreplicated shard is a group of one):

* :class:`~repro.replica.hlc.HybridLogicalClock` — per-key versions that
  order writes across processes without clock trust (last-writer-wins).
* :class:`~repro.replica.pool.GroupPool` — the one routed pool, built by
  :meth:`repro.shard.router.ShardRouter.connect_pool`: the ketama ring
  maps a key to a *replica group* whose R members hold the same key
  subset (so their digests are directly comparable); quorum writes (W=1
  async replication up to W=R synchronous) and reads that fail over past
  open breakers and dead members.  Groups of one skip all of it and call
  their member directly.  ``ReplicatedStorePool`` is its other name.
* :class:`~repro.replica.antientropy.AntiEntropyRepairer` — per-slot
  key→version digest exchange and repair (re-SET at original cost, so
  GD-Wheel H-values stay honest).
* :func:`~repro.replica.bootstrap.bootstrap_store` — a respawned worker
  copies its key range from a live peer (streamed MGET) before serving.
"""

from repro.replica.antientropy import AntiEntropyRepairer, RepairReport
from repro.replica.bootstrap import bootstrap_store
from repro.replica.hlc import (
    HybridLogicalClock,
    logical_count,
    pack_version,
    physical_ms,
)
from repro.replica.pool import GroupPool, QuorumWriteError, ReplicatedStorePool

__all__ = [
    "AntiEntropyRepairer",
    "GroupPool",
    "HybridLogicalClock",
    "QuorumWriteError",
    "RepairReport",
    "ReplicatedStorePool",
    "bootstrap_store",
    "logical_count",
    "pack_version",
    "physical_ms",
]
