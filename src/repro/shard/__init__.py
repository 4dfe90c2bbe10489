"""``repro.shard`` — the shared-nothing multi-process serving engine.

PR 1 gave the reproduction an asyncio server; this package multiplies it
across cores.  A :class:`ShardSupervisor` runs N worker processes (each a
complete store + server, see :mod:`repro.shard.worker`), respawns any that
die, and exposes stable per-shard endpoints.  A :class:`ShardRouter` maps
keys onto *groups* with the same ketama ring every other client in the
repo uses, and its one ``connect_pool`` returns the one routed pool,
:class:`~repro.replica.pool.GroupPool`, at every replication factor.  An
unreplicated shard is a group of one, so a sharded deployment is
protocol- and routing-compatible with the multi-node
:class:`~repro.aio.pool.AsyncStorePool`.

The paper's replacement-policy story survives intact: shards are
shared-nothing, each key lives on exactly one shard, and that shard's
GD-Wheel instances see exactly the traffic a single-process store serving
the same key subset would see — eviction behaviour is preserved while the
serialized per-operation section stops being a global bottleneck
(DESIGN.md §8).
"""

from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardStartupError, ShardSupervisor
from repro.shard.worker import (
    POLICY_FACTORIES,
    ShardConfig,
    build_store,
    worker_main,
)

__all__ = [
    "POLICY_FACTORIES",
    "ShardConfig",
    "ShardRouter",
    "ShardStartupError",
    "ShardSupervisor",
    "build_store",
    "worker_main",
]
