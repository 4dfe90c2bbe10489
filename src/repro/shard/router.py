"""Client-side key→group routing plus the address book for every member.

The router wraps the same ketama ring
(:class:`repro.cluster.consistent.ConsistentHashRing`) every pool builds,
keyed by *group* name — never by address or member name.  Names outlive
worker processes: a member that respawns (even on a new port) keeps its
name and its group, so the key→group assignment is stable across restarts
and across every client that knows the same group names.  All members of
a group serve its whole key range; an unreplicated shard is a group of
one.  :meth:`ShardRouter.connect_pool` turns the table into a live
:class:`~repro.replica.pool.GroupPool`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.aio.backoff import RetryPolicy
from repro.aio.client import AsyncStoreClient
from repro.cluster.consistent import ConsistentHashRing
from repro.replica.hlc import HybridLogicalClock
from repro.replica.pool import GroupPool
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker

Endpoint = Tuple[str, int]


class ShardRouter:
    """Key→group assignment plus member address books.

    Args:
        groups: group name -> {member name -> (host, port)}; a plain
            ``name -> (host, port)`` entry is a group of one named like its
            member.  Group names define the ring, member order the primary
            rotation (:meth:`GroupPool.replica_set`); addresses may change
            (:meth:`update_endpoint`) without moving keys.
        replicas: virtual ring points per group (must match the value
            other clients use for their routing to agree).
    """

    def __init__(
        self,
        groups: Mapping[str, Union[Endpoint, Mapping[str, Endpoint]]],
        replicas: int = 100,
    ) -> None:
        if not groups:
            raise ValueError("a router needs at least one group")
        self.replicas = replicas
        self._groups: Dict[str, Dict[str, Endpoint]] = {}
        seen = set()
        for group, members in groups.items():
            if not isinstance(members, Mapping):
                members = {group: members}
            if not members:
                raise ValueError(f"group {group!r} has no members")
            if seen.intersection(members):
                raise ValueError(f"duplicate member name in group {group!r}")
            seen.update(members)
            self._groups[group] = dict(members)
        self._ring = ConsistentHashRing(list(self._groups), replicas=replicas)

    @property
    def replication(self) -> int:
        """R: the (largest) group size."""
        return max(len(members) for members in self._groups.values())

    def group_for(self, key: bytes) -> str:
        """The group owning ``key`` (pure ring lookup)."""
        group = self._ring.node_for(key)
        assert group is not None  # the ring is never empty
        return group

    def members_of(self, group: str) -> Dict[str, Endpoint]:
        """The group's member name -> (host, port) address book."""
        return dict(self._groups[group])

    def endpoints_for(self, key: bytes) -> List[Endpoint]:
        """Member addresses for ``key``'s group, in member order."""
        return list(self._groups[self.group_for(key)].values())

    def update_endpoint(self, member: str, host: str, port: int) -> None:
        """Point ``member`` at a new address — routing does not change."""
        for members in self._groups.values():
            if member in members:
                members[member] = (host, port)
                return
        raise KeyError(f"unknown member {member!r}")

    def connect_pool(
        self,
        pool_size: int = 4,
        timeout: Optional[float] = 5.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        registry=None,
        trace=None,
        tracer=None,
        write_quorum: Optional[int] = None,
        hlc: Optional[HybridLogicalClock] = None,
    ) -> GroupPool:
        """A live :class:`GroupPool` over the current endpoints, routing
        exactly like this router.

        Every member gets its own client (whose ``retry`` rides out a
        worker respawn) and, with ``breaker_policy``, its own
        :class:`~repro.resilience.CircuitBreaker` named after the member
        and exporting through ``registry``/``trace``.  A ``tracer`` is
        shared by the pool (the sampler) and every client (hop spans,
        wire propagation).  ``write_quorum``/``hlc`` configure replicated
        groups.
        """

        def connect(member: str, host: str, port: int) -> AsyncStoreClient:
            breaker = None
            if breaker_policy is not None:
                breaker = CircuitBreaker(breaker_policy, name=member,
                                         registry=registry, trace=trace)
            return AsyncStoreClient(
                host, port, pool_size=pool_size, timeout=timeout, retry=retry,
                rng=rng, breaker=breaker, tracer=tracer,
            )

        return GroupPool(
            {
                group: {m: connect(m, *ep) for m, ep in members.items()}
                for group, members in self._groups.items()
            },
            replicas=self.replicas, write_quorum=write_quorum, hlc=hlc,
            registry=registry, tracer=tracer,
        )
