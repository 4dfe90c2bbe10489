"""One routed pool for every fleet shape: ring → replica group → member.

The ketama ring maps each key to a *group* name; every member of a group
holds the group's full key range.  An unreplicated shard is a group of
one, and each op on it calls the member's client directly — no version
stamp, no primary rotation, no fan-out task — so R=1 sends the bytes and
raises the errors of a plain routed client.

Larger groups replicate.  Writes fan out to every member carrying a
hybrid-logical-clock version (:mod:`repro.replica.hlc`) and return once
``write_quorum`` members acknowledged; the other legs finish in the
background (W=1 is async replication, W=R fully synchronous).  Reads try
the key's primary member, then the group's other members.  Conflicts
resolve last-writer-wins on the version; divergence that slips past
quorum is closed by :class:`repro.replica.antientropy.AntiEntropyRepairer`.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.cluster.consistent import ConsistentHashRing
from repro.kvstore.hashtable import fnv1a_64
from repro.obs import tracing
from repro.obs.aggregate import sum_numeric_stats
from repro.obs.trace import key_fingerprint
from repro.replica.hlc import HybridLogicalClock

if TYPE_CHECKING:
    from repro.aio.client import AsyncStoreClient

#: statuses that durably resolve a write on a replica.  ``NOT_STORED`` is
#: a last-writer-wins reject — the replica holds something newer, so the
#: write is decided (it lost); quorum math is about durability, not winning.
ACK_STATUSES = (b"STORED", b"NOT_STORED")


class QuorumWriteError(ConnectionError):
    """A write could not reach its quorum of replica acknowledgements.

    A :class:`ConnectionError`, so retry policies and partial-failure
    handling treat it like any other node failure.
    """

    def __init__(self, message: str, acks: int = 0, needed: int = 0) -> None:
        super().__init__(message)
        self.acks = acks
        self.needed = needed


class MultiGetResult(Dict[bytes, bytes]):
    """A ``multi_get`` result: the merged hits, plus per-key attribution.

    A plain ``{key: value}`` dict of the hits.  :attr:`errors` maps every
    key no member could answer to the exception of its last attempt, so a
    caller can tell "miss" (absent from both) from "unknown, the shard was
    down" and retry exactly the affected keys.
    """

    __slots__ = ("errors",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.errors: Dict[bytes, BaseException] = {}

    @property
    def complete(self) -> bool:
        """True when every key was actually answered by a live node."""
        return not self.errors


class GroupPool:
    """One logical cache over replica groups behind a hash ring.

    Args:
        groups: group name -> {member name -> connected client}.  Member
            order defines the rotation that spreads per-key primaries
            across the group.  A plain ``name -> client`` entry is a group
            of one named like its member.
        replicas: virtual ring points per *group* (ketama-style), so
            routing agrees with a
            :class:`~repro.shard.router.ShardRouter` over the same names.
        write_quorum: acknowledgements a replicated write needs (clamped
            to group size).  ``None`` = all members (synchronous); ``1`` =
            primary-only with async fan-out.
        hlc: the clock stamping write versions.  Share one per process so
            versions from different pools interleave correctly; defaults
            to a private clock.
        registry: optional :class:`~repro.obs.registry.MetricsRegistry`
            mirroring the failover/quorum counters as ``replica_*``.
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  The pool is
            then the root sampler: sampled ops open a ``client.request``
            root plus ``router.route`` spans, under which each member's
            client records its hop spans.  Unsampled ops run with sampling
            *suppressed* downstream, so a client sharing the tracer never
            re-rolls the decision.
    """

    def __init__(
        self,
        groups: Mapping[str, Union[AsyncStoreClient,
                                   Mapping[str, AsyncStoreClient]]],
        replicas: int = 100,
        write_quorum: Optional[int] = None,
        hlc: Optional[HybridLogicalClock] = None,
        registry=None,
        tracer: Optional["tracing.Tracer"] = None,
    ) -> None:
        if not groups:
            raise ValueError("a pool needs at least one group")
        if write_quorum is not None and write_quorum < 1:
            raise ValueError("write_quorum must be >= 1")
        self._groups: Dict[str, Tuple[str, ...]] = {}
        self._clients: Dict[str, AsyncStoreClient] = {}
        #: group -> (member, client) for every group of one: the direct path
        self._solo: Dict[str, Tuple[str, AsyncStoreClient]] = {}
        for group, members in groups.items():
            if not isinstance(members, Mapping):
                members = {group: members}
            if not members:
                raise ValueError(f"group {group!r} has no members")
            self._groups[group] = tuple(members)
            self._clients.update(members)
            if len(members) == 1:
                self._solo[group] = next(iter(members.items()))
        self._ring = ConsistentHashRing(list(self._groups), replicas=replicas)
        self.write_quorum = write_quorum
        self.hlc = hlc if hlc is not None else HybridLogicalClock()
        self.tracer = tracer
        self._registry = registry
        #: reads answered by a non-primary member
        self.replica_failovers = 0
        #: writes that raised :class:`QuorumWriteError`
        self.quorum_failures = 0
        #: failed legs of *acknowledged* replicated writes, before or after
        #: quorum: known divergence for the anti-entropy loop to repair
        self.async_write_failures = 0
        #: per-member operation counters, for balance diagnostics
        self.node_ops: Dict[str, int] = {name: 0 for name in self._clients}
        #: per-member failed ``multi_get`` legs
        self.node_failures: Dict[str, int] = {}
        #: background replication legs still in flight
        self._pending: Set[asyncio.Task] = set()

    # -- routing ---------------------------------------------------------------

    @property
    def clients(self) -> Dict[str, AsyncStoreClient]:
        return dict(self._clients)

    @property
    def breakers(self) -> Dict[str, object]:
        """Per-member circuit breakers for clients that carry one."""
        return {
            name: client.breaker
            for name, client in self._clients.items()
            if client.breaker is not None
        }

    def group_for(self, key: bytes) -> str:
        group = self._ring.node_for(key)
        assert group is not None
        return group

    def group_keys(self, keys: Sequence[bytes]) -> Dict[str, List[bytes]]:
        """Partition ``keys`` by owning group, preserving per-group order."""
        grouped: Dict[str, List[bytes]] = {}
        for key in keys:
            grouped.setdefault(self.group_for(key), []).append(key)
        return grouped

    def replica_set(self, key: bytes) -> List[str]:
        """The key's member preference list: primary first, then peers.

        The "primary" only spreads load: the group's member tuple rotated
        by ``fnv1a_64(key) % R`` gives every member an equal share.
        """
        members = self._groups[self.group_for(key)]
        start = fnv1a_64(key) % len(members)
        return list(members[start:] + members[:start])

    def _breaker_open(self, member: str) -> bool:
        # .state, never allow(): a routing pre-check must not consume the
        # half-open probe that would have closed the breaker
        breaker = self._clients[member].breaker
        return breaker is not None and breaker.state == "open"

    def _read_order(self, key: bytes) -> Sequence[str]:
        """Members to try for a read.  Open-breaker members are demoted to
        last resort, not skipped: a condemned group raises a real error
        instead of inventing a miss."""
        members = self._groups[self.group_for(key)]
        if len(members) == 1:
            return members
        order = self.replica_set(key)
        condemned = [m for m in order if self._breaker_open(m)]
        return [m for m in order if m not in condemned] + condemned

    def _count(self, name: str, n: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(f"replica_{name}").inc(n)

    # -- single-key ops --------------------------------------------------------

    def _single(self, op: str, key: bytes, replicated, *args, **kwargs):
        """The awaitable for one single-key op: a group of one calls its
        member client's ``op`` directly, a larger group runs
        ``replicated``; with a tracer, under the pool's spans."""
        group = self.group_for(key)
        solo = self._solo.get(group)
        if solo is None:
            call = functools.partial(replicated, key, *args, **kwargs)
        else:
            self.node_ops[solo[0]] += 1
            call = functools.partial(getattr(solo[1], op), key, *args, **kwargs)
        if self.tracer is None:
            return call()
        return self._routed(op, key, group, call)

    async def _routed(self, op: str, key: bytes, group: str, call):
        with self._request(op, key_fp=key_fingerprint(key)) as root:
            if root is None:
                return await call()
            with self._route(root, shard=group):
                return await call()

    @contextlib.contextmanager
    def _request(self, op: str, **attrs):
        """The ``client.request`` root span, or None when unsampled (and
        sampling suppressed downstream; a member client still
        force-samples a request that turns out slow or shed)."""
        tracer = self.tracer
        root = None
        if tracer.sample():
            root = tracer.start_span("client.request", op=op, **attrs)
            token = tracing.activate(root)
        else:
            token = tracing.suppress()
        try:
            yield root
        finally:
            tracing.deactivate(token)
            if root is not None:
                tracer.end(root)

    @contextlib.contextmanager
    def _route(self, root, **attrs):
        route = self.tracer.start_span("router.route", parent=root, **attrs)
        token = tracing.activate(route)
        try:
            yield
        finally:
            tracing.deactivate(token)
            self.tracer.end(route)

    async def get(self, key: bytes) -> Optional[bytes]:
        """GET; a replicated group fails over along the read order."""
        return await self._single("get", key, self._failover_get)

    async def _failover_get(self, key: bytes) -> Optional[bytes]:
        last_error: Optional[BaseException] = None
        for index, member in enumerate(self._read_order(key)):
            self.node_ops[member] += 1
            try:
                value = await self._clients[member].get(key)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                continue
            if index > 0:
                self.replica_failovers += 1
                self._count("failover_total")
            return value
        assert last_error is not None
        raise last_error

    async def set(
        self,
        key: bytes,
        value: bytes,
        cost: int = 0,
        exptime: float = 0,
        flags: int = 0,
    ) -> bool:
        """SET; a replicated group takes a quorum write.

        Every member receives the same versioned SET concurrently; the
        call returns once ``write_quorum`` legs resolved (see
        :data:`ACK_STATUSES`) and the rest finish in the background, their
        failures tallied in :attr:`async_write_failures`.  Raises
        :class:`QuorumWriteError` when too few members acknowledge.
        Returns True when an acknowledging member actually stored the
        value (False = the write lost LWW everywhere).
        """
        return await self._single(
            "set", key, self._quorum_set, value,
            cost=cost, exptime=exptime, flags=flags,
        )

    def _quorum_for(self, nmembers: int) -> int:
        return min(self.write_quorum or nmembers, nmembers)

    def _background_done(self, task: asyncio.Task) -> None:
        self._pending.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.async_write_failures += 1
            self._count("async_write_failures")

    async def _quorum_set(self, key: bytes, value: bytes, cost: int,
                          exptime: float, flags: int) -> bool:
        members = self.replica_set(key)
        needed = self._quorum_for(len(members))
        version = self.hlc.tick()
        pending = set()
        for member in members:
            self.node_ops[member] += 1
            pending.add(asyncio.ensure_future(self._clients[member].set(
                key, value, cost=cost, exptime=exptime,
                flags=flags, version=version,
            )))
        acks = failures = 0
        stored = False
        try:
            while pending and acks < needed:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is not None:
                        failures += 1
                    else:
                        acks += 1
                        stored = stored or bool(task.result())
        finally:
            for task in pending:  # post-quorum legs stay alive, tallied
                self._pending.add(task)
                task.add_done_callback(self._background_done)
        if acks < needed:
            self.quorum_failures += 1
            self._count("quorum_failures")
            raise QuorumWriteError(
                f"write quorum not met for {key!r}: "
                f"{acks}/{needed} acks ({failures} members failed)",
                acks=acks, needed=needed,
            )
        if failures:  # acknowledged, but some member never took it
            self.async_write_failures += failures
            self._count("async_write_failures", failures)
        return stored

    async def delete(self, key: bytes) -> bool:
        """DELETE; a replicated group deletes on every member and answers
        True if any had the key.  Deletes are unversioned (memcached
        semantics): a member that was down keeps a stale item until
        anti-entropy or expiry removes it."""
        return await self._single("delete", key, self._delete_all)

    async def _delete_all(self, key: bytes) -> bool:
        members = self.replica_set(key)
        results = await asyncio.gather(
            *(self._clients[m].delete(key) for m in members),
            return_exceptions=True,
        )
        for member in members:
            self.node_ops[member] += 1
        if all(isinstance(r, BaseException) for r in results):
            raise results[0]
        return any(r is True for r in results)

    # -- scatter/gather --------------------------------------------------------

    async def multi_get(
        self, keys: Sequence[bytes], partial: bool = False
    ) -> MultiGetResult:
        """Concurrent multi-key GET with per-group member failover.

        Each round sends every member one MGET frame with all its keys,
        members concurrently.  Round 1 sends each key to the first member in its
        read order; keys on a failed leg go to their next untried member
        until answered or out of members — a group of one gets one round.

        By default a key no member could answer makes the call raise that
        member's error, after every leg completed.  ``partial=True``
        returns the hits instead, with ``result.errors`` attributing every
        unanswered key.  Failed legs are tallied in :attr:`node_failures`.
        """
        merged = MultiGetResult()
        batches: Dict[str, List[bytes]] = {}
        for key in keys:
            batches.setdefault(self._read_order(key)[0], []).append(key)
        if not batches:
            return merged
        tried: Dict[bytes, Set[str]] = {}
        with (
            contextlib.nullcontext() if self.tracer is None
            else self._request("multi_get", nkeys=len(keys), nodes=len(batches))
        ) as root:
            while batches:
                batches = await self._get_round(batches, merged, tried, root)
        failovers = sum(1 for key in tried if key not in merged.errors)
        if failovers:
            self.replica_failovers += failovers
            self._count("failover_total", failovers)
        if merged.errors and not partial:
            raise next(iter(merged.errors.values()))
        return merged

    async def _get_round(self, batches, merged, tried, root):
        """One fan-out round; returns the next round's member batches."""
        members = list(batches)
        if root is None:
            legs = (self._clients[m].get_many(batches[m]) for m in members)
        else:  # each leg opens its route span in its own task
            legs = (self._traced_leg(root, m, batches[m]) for m in members)
        results = await asyncio.gather(*legs, return_exceptions=True)
        retry: Dict[str, List[bytes]] = {}
        for member, found in zip(members, results):
            self.node_ops[member] += 1
            if not isinstance(found, BaseException):
                if merged.errors:
                    for key in batches[member]:
                        merged.errors.pop(key, None)
                merged.update(found)
                continue
            self.node_failures[member] = self.node_failures.get(member, 0) + 1
            for key in batches[member]:
                merged.errors[key] = found
                seen = tried.setdefault(key, set())
                seen.add(member)
                untried = [m for m in self._read_order(key) if m not in seen]
                if untried:
                    retry.setdefault(untried[0], []).append(key)
        return retry

    async def _traced_leg(self, root, member: str, keys):
        with self._route(root, shard=member, nkeys=len(keys)):
            return await self._clients[member].get_many(keys)

    async def multi_set(
        self,
        items: Sequence[Tuple[bytes, bytes, int]],
        exptime: float = 0,
    ) -> int:
        """Concurrent batched SETs of (key, value, cost); returns #stored.

        A group of one gets one MSET frame of its items.  A replicated
        group's items are version-stamped and sent to every member; an
        item counts once ``write_quorum`` members acknowledged it, and
        :class:`QuorumWriteError` is raised, after every leg resolved, if
        any item fell short.
        """
        direct: Dict[str, List[Tuple[bytes, bytes, int]]] = {}
        stamped: Dict[str, List[Tuple[bytes, bytes, int, int]]] = {}
        for item in items:
            group = self.group_for(item[0])
            solo = self._solo.get(group)
            if solo is not None:
                direct.setdefault(solo[0], []).append(item)
            else:
                stamped.setdefault(group, []).append(
                    (item[0], item[1], item[2], self.hlc.tick())
                )
        legs = [
            self._clients[member].set_many(batch, exptime=exptime)
            for member, batch in direct.items()
        ]
        if stamped:
            legs.append(self._quorum_multi_set(stamped, exptime))
        counts = await asyncio.gather(*legs)
        for member in direct:
            self.node_ops[member] += 1
        return sum(counts)

    async def _quorum_multi_set(self, stamped, exptime: float) -> int:
        legs = [(g, member) for g in stamped for member in self._groups[g]]
        results = await asyncio.gather(
            *(self._clients[member].set_many_statuses(stamped[g], exptime=exptime)
              for g, member in legs),
            return_exceptions=True,
        )
        acks = {group: [0] * len(batch) for group, batch in stamped.items()}
        for (group, member), statuses in zip(legs, results):
            self.node_ops[member] += 1
            if not isinstance(statuses, BaseException):
                for index, status in enumerate(statuses):
                    acks[group][index] += status in ACK_STATUSES
        total = sum(len(batch) for batch in stamped.values())
        acked = sum(
            count >= self._quorum_for(len(self._groups[group]))
            for group, counts in acks.items() for count in counts
        )
        if acked < total:
            self.quorum_failures += total - acked
            self._count("quorum_failures")
            raise QuorumWriteError(
                f"{total - acked} of {total} items missed their write quorum",
                acks=acked, needed=total,
            )
        return acked

    # -- lifecycle / fleet -----------------------------------------------------

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for background replication legs to finish (tests, shutdown)."""
        if self._pending:
            await asyncio.wait(set(self._pending), timeout=timeout)

    async def per_node_stats(self) -> Dict[str, Dict[str, str]]:
        """Raw server stats per member, gathered concurrently."""
        members = list(self._clients)
        snapshots = await asyncio.gather(
            *(self._clients[m].stats() for m in members)
        )
        return dict(zip(members, snapshots))

    async def aggregate_stats(self) -> Dict[str, int]:
        """Summed numeric server stats across every member (merged by
        :func:`repro.obs.aggregate.sum_numeric_stats`)."""
        return sum_numeric_stats((await self.per_node_stats()).values())

    async def flush_all(self) -> None:
        await asyncio.gather(*(c.flush_all() for c in self._clients.values()))

    async def aclose(self) -> None:
        for task in list(self._pending):
            task.cancel()
        if self._pending:
            await asyncio.gather(*self._pending, return_exceptions=True)
        await asyncio.gather(*(c.aclose() for c in self._clients.values()))

    async def __aenter__(self) -> "GroupPool":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()


#: The pool's name where callers hold replica groups of clients.
ReplicatedStorePool = GroupPool
