"""Shard worker — one process, one :class:`KVStore`, one asyncio server.

Each worker is a complete single-shard deployment of the PR 1/PR 2 stack:
its own slab allocator, its own per-class GD-Wheel (or comparator) policy
instances, its own metrics registry, and its own event loop.  Nothing is
shared between workers, so there is no cross-process cache lock — the
paper's serialized replacement section shrinks to one shard's worth of
traffic, and N workers use N cores.

The module-level :func:`worker_main` is the child-process entrypoint (it
must be importable by name so ``spawn``/``forkserver`` start methods can
pickle it).  The parent passes a :class:`ShardConfig` plus one pipe
connection; the worker binds, reports ``{shard, host, port, pid}`` through
the pipe, then serves until SIGTERM/SIGINT.

Policies are named by string (``"gdwheel"``, ``"gdpq"``, ...) rather than
passed as callables so configs stay picklable under every start method.
"""

from __future__ import annotations

import asyncio
import os
import signal
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.aio.server import AsyncTCPStoreServer
from repro.core import (
    ClockPolicy,
    GDPQPolicy,
    GDSFPolicy,
    GDSPolicy,
    GDWheelPolicy,
    LRUPolicy,
)
from repro.kvstore.slab import (
    DEFAULT_GROWTH_FACTOR,
    DEFAULT_MIN_CHUNK,
    DEFAULT_SLAB_SIZE,
)
from repro.kvstore.store import KVStore
from repro.obs.trace import EventTrace
from repro.obs.tracing import Tracer

#: policy name -> factory, the picklable configuration surface
POLICY_FACTORIES = {
    "gdwheel": GDWheelPolicy,
    "gdpq": GDPQPolicy,
    "gds": GDSPolicy,
    "gdsf": GDSFPolicy,
    "lru": LRUPolicy,
    "clock": ClockPolicy,
}


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to build and serve its shard.

    ``port=0`` binds an ephemeral port (reported back through the ready
    pipe); the supervisor pins the reported port on respawn so a restarted
    shard keeps its endpoint and clients recover via plain retry.
    """

    name: str
    host: str = "127.0.0.1"
    port: int = 0
    policy: str = "gdwheel"
    memory_limit: int = 64 * 1024 * 1024
    slab_size: int = DEFAULT_SLAB_SIZE
    growth_factor: float = DEFAULT_GROWTH_FACTOR
    min_chunk_size: int = DEFAULT_MIN_CHUNK
    max_connections: Optional[int] = None
    #: flash-tier capacity per shard; 0 = no tier
    tier_bytes: int = 0
    #: parent directory for shard tiers; each shard uses ``tier_dir/<name>``
    #: (required when ``tier_bytes > 0`` — workers must survive restarts,
    #: so the tier cannot live in an ephemeral tempdir)
    tier_dir: Optional[str] = None
    tier_segment_bytes: int = 256 * 1024
    #: bounded EventTrace ring per worker (0 disables); on by default so
    #: the supervisor's ``stats trace`` aggregation always has rings to pull
    trace_events: int = 512
    #: directory for distributed-tracing span exports; ``None`` disables
    #: request tracing entirely (the default — zero overhead)
    trace_dir: Optional[str] = None
    #: head-sampling interval for server-side tracing (1 = every request)
    trace_sample: int = 100
    #: span-ring capacity when tracing is enabled
    trace_capacity: int = 4096
    #: replica group this worker serves (None = unreplicated; a member's
    #: group decides which peers it bootstraps from and repairs against)
    replica_group: Optional[str] = None
    #: arm a :class:`~repro.replica.hlc.HybridLogicalClock` in the store —
    #: server-stamped versions plus last-writer-wins resolution, the
    #: storage half of replication (required for every group member)
    replica_versions: bool = False
    #: same-group (host, port) peers to copy the key range from *before*
    #: the listener opens; () = start cold (initial spawn)
    bootstrap_peers: Tuple[Tuple[str, int], ...] = ()
    #: listing granularity / MGET batch for the bootstrap stream
    bootstrap_nslots: int = 64
    bootstrap_batch: int = 256

    def __post_init__(self) -> None:
        if self.policy not in POLICY_FACTORIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"known: {sorted(POLICY_FACTORIES)}"
            )
        if self.tier_bytes < 0:
            raise ValueError(f"tier_bytes must be >= 0, got {self.tier_bytes}")
        if self.tier_bytes > 0 and not self.tier_dir:
            raise ValueError(
                "tier_bytes > 0 requires tier_dir (the tier must persist "
                "across worker restarts)"
            )
        if self.trace_events < 0:
            raise ValueError(
                f"trace_events must be >= 0, got {self.trace_events}"
            )
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.bootstrap_nslots < 1:
            raise ValueError(
                f"bootstrap_nslots must be >= 1, got {self.bootstrap_nslots}"
            )
        if self.bootstrap_batch < 1:
            raise ValueError(
                f"bootstrap_batch must be >= 1, got {self.bootstrap_batch}"
            )
        if self.bootstrap_peers and not self.replica_versions:
            raise ValueError(
                "bootstrap_peers requires replica_versions (bootstrapped "
                "items carry versions the store must understand)"
            )


def build_store(config: ShardConfig) -> KVStore:
    """The shard's store, exactly as a single-process deployment builds it.

    With ``tier_bytes > 0`` the shard gets its own :class:`FlashTier` under
    ``tier_dir/<name>``; a respawned worker reopens the same directory and
    recovers the tier's contents (torn tails truncated) before serving.
    With ``trace_events > 0`` (the default) the store carries its own
    bounded :class:`~repro.obs.trace.EventTrace`, so ``stats trace`` —
    including the supervisor's fleet-wide aggregation — sees this worker's
    eviction/spill/shed events.
    """
    tier = None
    if config.tier_bytes > 0:
        from repro.tier import FlashTier, TierConfig

        tier = FlashTier(
            os.path.join(config.tier_dir, config.name),
            TierConfig(
                capacity_bytes=config.tier_bytes,
                segment_bytes=config.tier_segment_bytes,
            ),
        )
    trace = EventTrace(capacity=config.trace_events) if config.trace_events else None
    hlc = None
    if config.replica_versions:
        from repro.replica.hlc import HybridLogicalClock

        hlc = HybridLogicalClock()
    return KVStore(
        memory_limit=config.memory_limit,
        policy_factory=POLICY_FACTORIES[config.policy],
        slab_size=config.slab_size,
        growth_factor=config.growth_factor,
        min_chunk_size=config.min_chunk_size,
        trace=trace,
        tier=tier,
        hlc=hlc,
    )


async def _serve(config: ShardConfig, ready) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    store = build_store(config)
    tracer = None
    if config.trace_dir:
        tracer = Tracer(
            process=config.name,
            capacity=config.trace_capacity,
            sample_interval=config.trace_sample,
        )
        # store ops under a traced dispatch record store.* spans (one
        # ContextVar read per op otherwise; nothing at all without a tracer)
        tracer.instrument_store(store)
    if config.bootstrap_peers:
        # warm the store from a live same-group peer BEFORE the listener
        # opens: a respawned replica never serves its group's keys cold,
        # and clients that reconnect on the stable endpoint see data, not
        # a miss storm.  Best-effort — a peer dying mid-stream leaves a
        # partial warm-up for anti-entropy to finish.
        from repro.replica.bootstrap import bootstrap_store

        bootstrap_store(
            store,
            config.bootstrap_peers,
            nslots=config.bootstrap_nslots,
            batch=config.bootstrap_batch,
        )
    server = AsyncTCPStoreServer(
        store,
        host=config.host,
        port=config.port,
        max_connections=config.max_connections,
        tracer=tracer,
    )
    await server.start()
    host, port = server.address
    ready.send({"shard": config.name, "host": host, "port": port, "pid": os.getpid()})
    ready.close()
    try:
        await stop.wait()
    finally:
        await server.stop()
        if tracer is not None:
            # per-process file (pid-suffixed so a respawned worker appends
            # a fresh file instead of interleaving with its predecessor)
            os.makedirs(config.trace_dir, exist_ok=True)
            tracer.export(
                os.path.join(
                    config.trace_dir, f"{config.name}-{os.getpid()}.jsonl"
                )
            )
        if store.tier is not None:
            store.tier.close()


def worker_main(config: ShardConfig, ready) -> None:
    """Child-process entrypoint: serve ``config``'s shard until SIGTERM.

    Args:
        config: the shard to build and serve.
        ready: a ``multiprocessing.connection.Connection``; one dict
            (shard name, bound host/port, pid) is sent once the listener
            is live, then the worker's end is closed.
    """
    try:
        asyncio.run(_serve(config, ready))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C delivery
        pass
