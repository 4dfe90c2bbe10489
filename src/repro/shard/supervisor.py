"""The shard supervisor — spawn, monitor, respawn, and aggregate workers.

The process model is nginx/memcached-meets-prefork: a parent that owns no
traffic, N shared-nothing workers that own everything (store, policies,
event loop, metrics), and a monitor thread that respawns any worker that
dies.  A respawned worker rebinds its predecessor's port, so the fleet's
endpoints are stable and clients recover with the ordinary PR 1
retry/backoff path — no coordination protocol, no connection draining.

Because each shard runs its own per-slab-class policies over its own key
subset, eviction decisions inside one shard are identical to a
single-process store serving only that subset — sharding changes *where*
the paper's replacement work happens, never *what* gets evicted
(DESIGN.md §8).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.aggregate import merge_trace_stats, sum_numeric_stats
from repro.protocol.client import CostAwareClient
from repro.protocol.commands import ProtocolError
from repro.shard.router import Endpoint, ShardRouter
from repro.shard.worker import ShardConfig, worker_main


class ShardStartupError(RuntimeError):
    """A worker failed to come up (or report ready) in time."""


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = ("name", "process", "host", "port", "restarts")

    def __init__(self, name: str, process, host: str, port: int) -> None:
        self.name = name
        self.process = process
        self.host = host
        self.port = port
        self.restarts = 0


def _default_start_method() -> str:
    # fork is by far the cheapest way to stamp out N identical workers
    # (no re-import of numpy per child); fall back to spawn where fork
    # does not exist (Windows) — worker_main and ShardConfig pickle fine.
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardSupervisor:
    """Run N shard workers as child processes behind stable endpoints.

    Args:
        num_shards: worker count (one store + asyncio server each).
        host: bind address for every worker (loopback by default).
        ports: optional explicit port per shard; default lets each worker
            bind an ephemeral port and report it back.
        policy / memory_limit / slab_size / max_connections: forwarded
            into each worker's :class:`~repro.shard.worker.ShardConfig`.
            ``memory_limit`` is the PER-SHARD budget (a 4-shard fleet with
            the default serves 4x the memory of one process).
        tier_bytes / tier_dir / tier_segment_bytes: per-shard flash tier;
            each worker opens ``tier_dir/<shard-name>``, so a respawned
            worker recovers its predecessor's spilled entries.
        trace_dir / trace_sample / trace_events / trace_capacity: request
            tracing (DESIGN.md §12).  ``trace_dir`` set arms a
            server-side :class:`~repro.obs.tracing.Tracer` in every
            worker; each exports its span ring to
            ``trace_dir/<shard>-<pid>.jsonl`` on shutdown, ready for
            :mod:`repro.obs.tracecollect`.  ``trace_events`` sizes the
            per-worker :class:`~repro.obs.trace.EventTrace` ring that
            ``stats trace`` (and :meth:`aggregate_trace`) reads.
        replicas: ketama points per shard for routers/pools built here.
        replication: workers per shard group (R).  The ring still routes
            by *group* name, so R=1 (the default) is byte-for-byte the
            old unreplicated fleet; R>1 runs ``num_shards`` groups of R
            members named ``<group>.r<j>``, every member holding the
            group's full key range (DESIGN.md §14).
        write_quorum: default W for pools built by :meth:`connect_pool`
            (None = all R members, synchronous; 1 = fire-and-forget
            async replication).
        anti_entropy_interval: seconds between background digest-compare
            -and-repair sweeps over every group (0 = no background loop;
            call :meth:`repair_replicas` manually).
        replica_nslots: digest slots for anti-entropy and convergence
            probes.
        bootstrap_on_respawn: whether a respawned member copies its key
            range from a live same-group peer before serving.
        start_method: multiprocessing start method; default prefers
            ``fork`` and falls back to ``spawn``.
        respawn: whether the monitor thread restarts dead workers.
        max_respawns: per-shard restart budget before giving up.
        monitor_interval: seconds between liveness sweeps.

    Use as a context manager (``with ShardSupervisor(4) as sup:``) from
    synchronous code — start it *before* entering an event loop so workers
    never fork a live loop.
    """

    def __init__(
        self,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        ports: Optional[List[int]] = None,
        policy: str = "gdwheel",
        memory_limit: int = 64 * 1024 * 1024,
        slab_size: int = 1024 * 1024,
        max_connections: Optional[int] = None,
        replicas: int = 100,
        start_method: Optional[str] = None,
        respawn: bool = True,
        max_respawns: int = 5,
        monitor_interval: float = 0.2,
        name_prefix: str = "shard",
        startup_timeout: float = 30.0,
        tier_bytes: int = 0,
        tier_dir: Optional[str] = None,
        tier_segment_bytes: int = 256 * 1024,
        trace_dir: Optional[str] = None,
        trace_sample: int = 100,
        trace_events: int = 512,
        trace_capacity: int = 4096,
        replication: int = 1,
        write_quorum: Optional[int] = None,
        anti_entropy_interval: float = 0.0,
        replica_nslots: int = 64,
        bootstrap_on_respawn: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if write_quorum is not None and not 1 <= write_quorum <= replication:
            raise ValueError(
                f"write_quorum must be in 1..{replication} (R), "
                f"got {write_quorum}"
            )
        if ports is not None and len(ports) != num_shards * replication:
            raise ValueError(
                "ports must list one port per worker "
                f"(num_shards*replication = {num_shards * replication})"
            )
        self.num_shards = num_shards
        self.host = host
        self.policy = policy
        self.memory_limit = memory_limit
        self.slab_size = slab_size
        self.max_connections = max_connections
        self.tier_bytes = tier_bytes
        self.tier_dir = tier_dir
        self.tier_segment_bytes = tier_segment_bytes
        self.trace_dir = trace_dir
        self.trace_sample = trace_sample
        self.trace_events = trace_events
        self.trace_capacity = trace_capacity
        self.replicas = replicas
        self.replication = replication
        self.write_quorum = write_quorum
        self.anti_entropy_interval = anti_entropy_interval
        self.replica_nslots = replica_nslots
        self.bootstrap_on_respawn = bootstrap_on_respawn
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.monitor_interval = monitor_interval
        self.startup_timeout = startup_timeout
        self._requested_ports = ports
        # group names define the ring; member names are the processes.
        # With R=1 member name == group name, so every existing caller
        # (and every on-disk tier path) sees exactly the old fleet.
        self._group_names = [f"{name_prefix}-{i}" for i in range(num_shards)]
        self._group_members: Dict[str, List[str]] = {
            group: (
                [group] if replication == 1
                else [f"{group}.r{j}" for j in range(replication)]
            )
            for group in self._group_names
        }
        self._member_group: Dict[str, str] = {
            member: group
            for group, members in self._group_members.items()
            for member in members
        }
        self._names = [
            member
            for group in self._group_names
            for member in self._group_members[group]
        ]
        self._ctx = multiprocessing.get_context(
            start_method if start_method is not None else _default_start_method()
        )
        self._handles: Dict[str, _WorkerHandle] = {}
        self._lock = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._anti_entropy: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # serializes _respawn against stop(): a respawn in flight when
        # shutdown begins either finishes (and its fresh worker is then
        # terminated with the rest) or never starts — no worker can be
        # (re)spawned after stop() has swept the fleet
        self._respawn_lock = threading.Lock()
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and block until all report ready."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        try:
            for index, name in enumerate(self._names):
                port = (
                    self._requested_ports[index]
                    if self._requested_ports is not None
                    else 0
                )
                self._handles[name] = self._spawn(name, port)
        except Exception:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor-monitor", daemon=True
        )
        self._monitor.start()
        if self.anti_entropy_interval > 0 and self.replication > 1:
            self._anti_entropy = threading.Thread(
                target=self._anti_entropy_loop,
                name="shard-supervisor-anti-entropy",
                daemon=True,
            )
            self._anti_entropy.start()

    def _spawn(
        self,
        name: str,
        port: int,
        bootstrap_peers: Tuple[Tuple[str, int], ...] = (),
    ) -> _WorkerHandle:
        """Start one worker and wait for its ready report."""
        config = ShardConfig(
            name=name,
            host=self.host,
            port=port,
            policy=self.policy,
            memory_limit=self.memory_limit,
            slab_size=self.slab_size,
            max_connections=self.max_connections,
            tier_bytes=self.tier_bytes,
            tier_dir=self.tier_dir,
            tier_segment_bytes=self.tier_segment_bytes,
            trace_dir=self.trace_dir,
            trace_sample=self.trace_sample,
            trace_events=self.trace_events,
            trace_capacity=self.trace_capacity,
            replica_group=self._member_group[name],
            replica_versions=self.replication > 1,
            bootstrap_peers=bootstrap_peers,
            bootstrap_nslots=self.replica_nslots,
        )
        parent_end, child_end = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, child_end),
            name=f"gdwheel-{name}",
            daemon=True,
        )
        process.start()
        child_end.close()  # the worker owns the other end now
        try:
            if not parent_end.poll(self.startup_timeout):
                raise ShardStartupError(f"worker {name} never reported ready")
            report = parent_end.recv()
        except (EOFError, OSError) as exc:
            process.terminate()
            process.join(timeout=5)
            raise ShardStartupError(f"worker {name} died during startup") from exc
        finally:
            parent_end.close()
        return _WorkerHandle(name, process, report["host"], report["port"])

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful fleet shutdown: SIGTERM, join, then kill stragglers."""
        self._stopping.set()
        # wait out any respawn already in flight: after this, _respawn's
        # entry check sees _stopping and refuses, so the handle list we
        # sweep below is complete — no worker can appear after the sweep
        if self._respawn_lock.acquire(timeout=timeout):
            self._respawn_lock.release()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
            self._monitor = None
        if self._anti_entropy is not None:
            self._anti_entropy.join(timeout=timeout)
            self._anti_entropy = None
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=1.0)

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- monitoring / respawn ---------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.monitor_interval):
            with self._lock:
                dead = [
                    handle
                    for handle in self._handles.values()
                    if not handle.process.is_alive()
                ]
            for handle in dead:
                if self._stopping.is_set():
                    return
                self._respawn(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        with self._respawn_lock:
            # checked *inside* the lock: a worker that dies while stop()
            # is sweeping the fleet must not be resurrected after its
            # SIGTERM — the old entry-less path could spawn a fresh
            # process that outlived the supervisor
            if self._stopping.is_set():
                return
            handle.process.join(timeout=1.0)  # reap the corpse
            if not self.respawn or handle.restarts >= self.max_respawns:
                return
            restarts = handle.restarts + 1
            peers = self._bootstrap_peers_for(handle.name)
            try:
                # rebind the dead worker's port so existing clients
                # recover by plain retry; a new ready report confirms the
                # listener is live (and, with peers, already warmed)
                fresh = self._spawn(handle.name, handle.port,
                                    bootstrap_peers=peers)
            except ShardStartupError:
                try:
                    # port may be briefly unavailable — fall back to ephemeral
                    fresh = self._spawn(handle.name, 0, bootstrap_peers=peers)
                except ShardStartupError:  # pragma: no cover - startup storm
                    return
            fresh.restarts = restarts
            with self._lock:
                if self._stopping.is_set():  # lost the race with stop()
                    fresh.process.terminate()
                    fresh.process.join(timeout=1.0)
                    return
                self._handles[handle.name] = fresh

    def _bootstrap_peers_for(
        self, member: str
    ) -> Tuple[Tuple[str, int], ...]:
        """Live same-group endpoints a respawning ``member`` can copy from."""
        if not self.bootstrap_on_respawn or self.replication < 2:
            return ()
        group = self._member_group[member]
        with self._lock:
            return tuple(
                (h.host, h.port)
                for name in self._group_members[group]
                if name != member
                for h in (self._handles.get(name),)
                if h is not None and h.process.is_alive()
            )

    # -- introspection ----------------------------------------------------------

    @property
    def shard_names(self) -> List[str]:
        """Every worker (member) name; == group names when R=1."""
        return list(self._names)

    @property
    def group_names(self) -> List[str]:
        """Replica group names — the identities on the hash ring."""
        return list(self._group_names)

    def members_of(self, group: str) -> List[str]:
        """Member names of one replica group, in rotation order."""
        return list(self._group_members[group])

    def endpoints(self) -> Dict[str, Endpoint]:
        """Worker name -> (host, port) for every worker."""
        with self._lock:
            return {
                name: (handle.host, handle.port)
                for name, handle in self._handles.items()
            }

    def group_endpoints(self) -> Dict[str, Dict[str, Endpoint]]:
        """Group name -> {member name -> (host, port)}."""
        endpoints = self.endpoints()
        return {
            group: {
                member: endpoints[member]
                for member in members
                if member in endpoints
            }
            for group, members in self._group_members.items()
        }

    def pids(self) -> Dict[str, Optional[int]]:
        with self._lock:
            return {
                name: handle.process.pid
                for name, handle in self._handles.items()
            }

    def restarts(self) -> Dict[str, int]:
        """Per-shard respawn counts (0 = original process still serving)."""
        with self._lock:
            return {name: h.restarts for name, h in self._handles.items()}

    def alive(self) -> Dict[str, bool]:
        with self._lock:
            return {
                name: handle.process.is_alive()
                for name, handle in self._handles.items()
            }

    def kill_worker(self, name: str) -> int:
        """SIGKILL one worker (chaos testing); returns the dead pid.

        The monitor thread observes the death and respawns a replacement
        on the same endpoint (respawn budget permitting).
        """
        with self._lock:
            handle = self._handles[name]
        pid = handle.process.pid
        handle.process.kill()
        return pid

    def wait_for_respawn(
        self, name: str, min_restarts: int = 1, timeout: float = 10.0
    ) -> bool:
        """Block until ``name`` has been respawned at least ``min_restarts``
        times and is alive again; returns False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                handle = self._handles[name]
                if handle.restarts >= min_restarts and handle.process.is_alive():
                    return True
            time.sleep(0.05)
        return False

    # -- client-side views ------------------------------------------------------

    def router(self) -> ShardRouter:
        """A :class:`ShardRouter` over the current group endpoints.

        The ring routes by group name at every R; an unreplicated fleet's
        groups are groups of one named like their only member.
        """
        return ShardRouter(self.group_endpoints(), replicas=self.replicas)

    def connect_pool(self, **kwargs):
        """A live :class:`~repro.replica.pool.GroupPool` over the fleet,
        with this supervisor's default ``write_quorum`` (overridable per
        call); every other kwarg goes to :meth:`ShardRouter.connect_pool`.
        """
        kwargs.setdefault("write_quorum", self.write_quorum)
        return self.router().connect_pool(**kwargs)

    # -- anti-entropy -----------------------------------------------------------

    def _repairer(self):
        from repro.replica.antientropy import AntiEntropyRepairer

        return AntiEntropyRepairer(
            self.group_endpoints(), nslots=self.replica_nslots
        )

    def repair_replicas(self):
        """One digest-compare-and-repair sweep over every replica group.

        Returns the sweep's
        :class:`~repro.replica.antientropy.RepairReport`.  Safe to call
        with members down (their groups are skipped this sweep).
        """
        return self._repairer().run_once()

    def replicas_converged(self) -> bool:
        """Do all members of every group hold identical digests right now?"""
        if self.replication < 2:
            return True
        return self._repairer().converged()

    def _anti_entropy_loop(self) -> None:
        while not self._stopping.wait(self.anti_entropy_interval):
            try:
                self.repair_replicas()
            except (OSError, ProtocolError):
                # a sweep racing a dying/respawning member fails at the
                # socket or mid-reply; the next sweep repairs
                continue

    # -- fleet telemetry --------------------------------------------------------

    def per_shard_stats(self, subcommand: str = "") -> Dict[str, Dict[str, str]]:
        """Raw ``stats [subcommand]`` per shard over short-lived connections."""
        out: Dict[str, Dict[str, str]] = {}
        for name, (host, port) in self.endpoints().items():
            client = CostAwareClient.tcp(host, port)
            try:
                out[name] = client.stats(subcommand)
            finally:
                client.close()
        return out

    def aggregate_stats(self, subcommand: str = "") -> Dict[str, object]:
        """Numeric sum of every shard's stats (counters and level gauges).

        Ratios/percentiles do not sum; recompute them from the summed raw
        series (see :mod:`repro.obs.aggregate`).
        """
        return sum_numeric_stats(self.per_shard_stats(subcommand).values())

    def aggregate_trace(self) -> Dict[str, object]:
        """Fleet-wide ``stats trace`` view: pull every worker's EventTrace
        ring through the supervisor and merge (summed per-kind counts plus
        a shard-tagged, per-shard-ordered event tail).

        See :func:`repro.obs.aggregate.merge_trace_stats` for the shape.
        """
        return merge_trace_stats(self.per_shard_stats("trace"))

    def cluster_top(self, seconds: float = 1.0) -> str:
        """One rendered frame of the live cluster health table.

        Samples every shard's default + metrics stats twice, ``seconds``
        apart, and renders per-shard ops/s, GET p99, hit rate, evictions,
        tier hit/spill rates, shed counts, and item counts (see
        :mod:`repro.obs.top`).  Replicated fleets add a ``group`` column
        with members of the same group rendered adjacent.
        """
        from repro.obs.top import top_table

        return top_table(
            self.per_shard_stats,
            seconds=seconds,
            replica_groups=(
                dict(self._member_group) if self.replication > 1 else None
            ),
        )
