"""The key-value store facade — a memcached work-alike in simulation.

Wires together the key index (a ``dict``; see :mod:`repro.kvstore.hashtable`),
the slab allocator (the memory), one replacement policy instance per slab
class (the paper replaces each class's LRU with GD-Wheel, Section 4.3), and
a slab rebalancer (Section 5).  The public operations mirror memcached's
command set: GET, SET, ADD, REPLACE, DELETE, TOUCH, FLUSH_ALL — with the
paper's protocol extension that SET may carry a recomputation **cost**.

Eviction flow on SET (Figure 6): find the item's slab class; take a free
chunk; failing that, allocate a new slab while under the memory limit;
failing that, ask the class's replacement policy for victims until a chunk
frees up.  Before evicting an unexpired victim, up to
``RECLAIM_SCAN_DEPTH`` entries near the eviction end are checked for
expired items to reclaim instead (memcached's behaviour for LRU; policies
without an ordered tail skip the scan).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.core.policy import ReplacementPolicy
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTrace, EvictionEvent, SlabMoveEvent, key_fingerprint
from repro.obs.tracing import child_span, finish_span
from repro.kvstore.clock import SimClock
from repro.kvstore.errors import (
    NotStoredError,
    ObjectTooLargeError,
    OutOfMemoryError,
)
from repro.kvstore.hashtable import HashTable, fnv1a_64
from repro.kvstore.item import Item, NEVER_EXPIRES
from repro.kvstore.rebalance import NullRebalancer, Rebalancer
from repro.kvstore.slab import (
    DEFAULT_GROWTH_FACTOR,
    DEFAULT_MIN_CHUNK,
    DEFAULT_SLAB_SIZE,
    SlabAllocator,
    SlabClass,
)
from repro.kvstore.stats import ClassStats, StoreStats


class KVStore:
    """A slab-allocated, policy-pluggable, memcached-like cache."""

    #: how many eviction-end entries to check for expired items first
    RECLAIM_SCAN_DEPTH = 5

    def __init__(
        self,
        memory_limit: int,
        policy_factory: Callable[[], ReplacementPolicy],
        rebalancer: Optional[Rebalancer] = None,
        slab_size: int = DEFAULT_SLAB_SIZE,
        growth_factor: float = DEFAULT_GROWTH_FACTOR,
        min_chunk_size: int = DEFAULT_MIN_CHUNK,
        clock: Optional[SimClock] = None,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
        tier=None,
        on_evict: Optional[Callable] = None,
        hlc=None,
    ) -> None:
        """
        Args:
            memory_limit: cache size in bytes (the paper sweeps 10-25 GB;
                simulations use tens of MB).
            policy_factory: builds one replacement policy per slab class,
                e.g. ``GDWheelPolicy`` or ``LRUPolicy``.
            rebalancer: slab rebalancing policy; default is none.
            slab_size / growth_factor / min_chunk_size: allocator geometry.
            clock: shared simulated clock (created if omitted).
            registry: metrics registry for counters/latency histograms; a
                private one is created when omitted (counters always work).
                Pass a :class:`~repro.obs.registry.NullRegistry` to make
                every instrument a no-op and skip op timing entirely.
            trace: optional bounded event trace recording structured
                eviction / cascade / slab-move events.
            tier: optional :class:`~repro.tier.tier.FlashTier`; unexpired
                evictions are offered to it through the eviction hook and
                GET misses fall through to it with promotion back into RAM
                on a hit.  ``None`` (the default) keeps the single-tier
                hot path: one attribute check on the miss/eviction paths.
            on_evict: optional callable ``(item, reason)`` fired for every
                item leaving the store under pressure, with ``reason`` one
                of ``"evicted"``, ``"expired"``, or ``"rebalance"``.  Runs
                after the tier spill when both are configured.
            hlc: optional :class:`~repro.replica.hlc.HybridLogicalClock`.
                When set, unversioned SETs are stamped with a fresh local
                version and versioned SETs feed :meth:`~.HybridLogicalClock.
                observe` — replica members arm this so locally-originated
                writes still participate in last-writer-wins resolution.
                ``None`` (the default) keeps the single-copy hot path: one
                attribute check per SET.
        """
        self.clock = clock if clock is not None else SimClock()
        self.allocator = SlabAllocator(
            memory_limit=memory_limit,
            slab_size=slab_size,
            growth_factor=growth_factor,
            min_chunk_size=min_chunk_size,
        )
        self.hashtable = HashTable()
        self._policy_factory = policy_factory
        self._policies: dict = {}  # class_id -> ReplacementPolicy
        self.rebalancer = rebalancer if rebalancer is not None else NullRebalancer()
        self.rebalancer.attach(self)
        # The NullRebalancer's on_request is a no-op; resolving and calling
        # it on every operation is pure overhead, so public ops guard on
        # this prebound reference instead (None = skip the call).
        self._on_request: Optional[Callable[[], None]] = (
            None
            if type(self.rebalancer) is NullRebalancer
            else self.rebalancer.on_request
        )
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.tier = tier
        if tier is not None:
            tier.bind_observability(self.metrics, self.trace, clock=self.clock)
        # The eviction choke point (_evict_item) fires this hook; the tier
        # spill is composed in front of any user hook so both observe the
        # same stream.  None = nothing to call (the common fast path).
        self._on_evict: Optional[Callable] = (
            self._make_tier_hook(tier, on_evict) if tier is not None else on_evict
        )
        self.hlc = hlc
        self.stats = StoreStats(self.metrics)
        # Prebound bumps for the three hottest counters: one call instead
        # of a property fget+fset round trip per event.  Equally valid for
        # a NullRegistry (its shared no-op counter ignores inc()).
        counters = self.stats._counters
        self._count_get_hit = counters["get_hits"].inc
        self._count_get_miss = counters["get_misses"].inc
        self._count_set = counters["sets"].inc
        self._cas_counter = 0
        # Per-op wall-clock histograms are opt-in: only when a registry was
        # explicitly attached (and is live) do we pay two perf_counter reads
        # per operation.  Simulations that never asked for telemetry keep
        # the seed's hot path byte-for-byte.
        if registry is not None and registry.enabled:
            self._instrument_ops()

    #: public operations wrapped with latency histograms when instrumented
    _TIMED_OPS = (
        "get", "set", "add", "replace", "append", "prepend", "cas",
        "incr", "delete", "touch_ttl",
    )

    def _instrument_ops(self) -> None:
        """Shadow each public op with a timed wrapper (instance attributes).

        ``decr`` is left alone — it delegates to ``incr``, which is already
        timed.  Callers that hold the store (the protocol servers) call
        through the instance attribute and are timed too.
        """
        for op in self._TIMED_OPS:
            hist = self.metrics.histogram(
                "store_op_latency_us",
                help="store operation latency in microseconds",
                op=op,
            )
            setattr(self, op, self._timed(getattr(self, op), hist))

    @staticmethod
    def _timed(fn, hist):
        perf_counter = time.perf_counter
        # bind the buffer append directly (the list identity is stable);
        # batches fold into the histogram via flush, and any read flushes
        pending = hist._pending
        append = pending.append
        flush = hist.flush
        flush_at = hist.FLUSH_AT

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                append((perf_counter() - started) * 1e6)
                if len(pending) >= flush_at:
                    flush()

        timed.__wrapped__ = fn
        return timed

    # -- plumbing -----------------------------------------------------------------

    def policy_for(self, slab_class: SlabClass) -> ReplacementPolicy:
        """The replacement policy instance owning ``slab_class``'s items.

        The resolved policy is cached on the slab class itself
        (``slab_class.policy``), so steady-state GET/SET hits pay one
        attribute load instead of a method call plus dict lookup.
        """
        policy = slab_class.policy
        if policy is None:
            policy = self._policies.get(slab_class.class_id)
            if policy is None:
                policy = self._policy_factory()
                policy.bind_observability(
                    self.metrics, self.trace, class_id=slab_class.class_id
                )
                self._policies[slab_class.class_id] = policy
            slab_class.policy = policy
        return policy

    def _unlink_item(self, item: Item, slab_class: SlabClass) -> None:
        """Remove ``item`` from hash, policy, and allocator accounting."""
        self.hashtable.delete(item.key)
        policy = slab_class.policy
        if policy is None:
            policy = self.policy_for(slab_class)
        policy.remove(item)
        slab_class.free_item(item)

    def _make_tier_hook(self, tier, user_hook: Optional[Callable]) -> Callable:
        """The eviction hook installed when a tier is attached.

        Unexpired pressure victims are offered to the tier's admission
        filter; ``"expired"`` reclaims carry no recomputation value and
        are never spilled.  A user-supplied hook still sees every event.
        """

        def tier_on_evict(item: Item, reason: str) -> None:
            if reason != "expired":
                span = child_span("tier.spill")
                admitted = tier.spill(
                    item.key, item.value, item.cost, item.flags, item.exptime
                )
                if span is not None:
                    finish_span(
                        span, key_fp=key_fingerprint(item.key),
                        nbytes=len(item.value), reason=reason,
                        admitted=admitted,
                    )
                if admitted:
                    self.stats.tier_spills += 1
            if user_hook is not None:
                user_hook(item, reason)

        return tier_on_evict

    def _evict_item(
        self,
        item: Item,
        slab_class: SlabClass,
        policy: ReplacementPolicy,
        reason: str,
        detached: bool = False,
    ) -> None:
        """The single eviction choke point.

        Every item that leaves the store under pressure — policy eviction
        (``"evicted"``), expiry reclaim at the eviction end
        (``"expired"``), or a slab move (``"rebalance"``) — is unlinked
        here, and the ``on_evict`` hook (tier spill and/or user callback)
        fires exactly once per departure.  ``detached=True`` means the
        policy already dropped the item (``select_victim`` does), so only
        the hash table and allocator need unlinking.
        """
        self.hashtable.delete(item.key)
        if not detached:
            policy.remove(item)
        slab_class.free_item(item)
        on_evict = self._on_evict
        if on_evict is not None:
            on_evict(item, reason)

    def _drop_for_rebalance(self, item: Item) -> None:
        """Eviction callback used during slab reassignment."""
        slab_class = item.slab.owner
        self._evict_item(
            item, slab_class, self.policy_for(slab_class), "rebalance"
        )
        self.stats.rebalance_evictions += 1

    def move_slab(self, slab, dest: SlabClass) -> int:
        """Reassign ``slab`` to ``dest``; returns items dropped."""
        src = slab.owner
        src_id = src.class_id if src is not None else -1
        src_cpb = src.average_cost_per_byte() if src is not None else 0.0
        dest_cpb = dest.average_cost_per_byte()
        dropped = self.allocator.reassign_slab(slab, dest, self._drop_for_rebalance)
        self.stats.slab_moves += 1
        if self.trace is not None:
            self.trace.record(
                SlabMoveEvent(
                    src_class=src_id,
                    dest_class=dest.class_id,
                    dropped_items=dropped,
                    reclaimed_bytes=self.allocator.slab_size,
                    src_cost_per_byte=round(src_cpb, 6),
                    dest_cost_per_byte=round(dest_cpb, 6),
                )
            )
        return dropped

    def _evict_one(self, slab_class: SlabClass) -> Item:
        """Free one chunk in ``slab_class`` via expiry reclaim or eviction."""
        policy = self.policy_for(slab_class)
        now = self.clock.now
        # Memcached first scans a few entries at the eviction end for an
        # expired item to reclaim; only list-ordered policies support this.
        iter_tail = getattr(policy, "iter_tail", None)
        if iter_tail is not None:
            scanned = 0
            for entry in iter_tail():
                if scanned >= self.RECLAIM_SCAN_DEPTH:
                    break
                scanned += 1
                item: Item = entry  # type: ignore[assignment]
                if item.expired(now):
                    self._evict_item(item, slab_class, policy, "expired")
                    self.stats.reclaims += 1
                    if self.trace is not None:
                        self._trace_eviction(policy, slab_class, item, expired=True)
                    return item
        victim: Item = policy.select_victim()  # type: ignore[assignment]
        expired = victim.expired(now)
        self._evict_item(
            victim, slab_class, policy,
            "expired" if expired else "evicted", detached=True,
        )
        if expired:
            self.stats.reclaims += 1
        else:
            self.stats.evictions += 1
            self.stats.evicted_cost += victim.cost
            slab_class.evictions += 1
        if self.trace is not None:
            self._trace_eviction(policy, slab_class, victim, expired=expired)
        if not expired:
            self.rebalancer.on_eviction(slab_class, victim)
        return victim

    def _trace_eviction(
        self, policy: ReplacementPolicy, slab_class: SlabClass,
        victim: Item, expired: bool,
    ) -> None:
        """Record one structured eviction/reclaim event (trace enabled only)."""
        inflation = getattr(policy, "inflation", None)
        hand = getattr(policy, "hand", None)
        self.trace.record(
            EvictionEvent(
                class_id=slab_class.class_id,
                key_hash=key_fingerprint(victim.key),
                cost=victim.cost,
                h_value=getattr(victim, "policy_h", 0),
                inflation=inflation if inflation is not None else -1,
                queue_index=hand(0) if hand is not None else -1,
                expired=expired,
            )
        )

    def _allocate_chunk(self, slab_class: SlabClass):
        """A (slab, index) chunk in ``slab_class``, evicting as needed."""
        chunk = slab_class.try_alloc()
        if chunk is not None:
            return chunk
        if self.allocator.grow(slab_class) is not None:
            return slab_class.try_alloc()
        if slab_class.num_slabs == 0:
            raise OutOfMemoryError(
                f"slab class {slab_class.class_id} owns no slabs and the "
                f"memory limit is reached"
            )
        while chunk is None:
            self._evict_one(slab_class)
            chunk = slab_class.try_alloc()
        return chunk

    # -- public operations ---------------------------------------------------------

    def get(self, key: bytes) -> Optional[Item]:
        """GET: the live item for ``key``, or ``None`` on a miss.

        Expired items are lazily deleted and count as misses; hits update the
        replacement policy (after "responding", as memcached does — which is
        why the paper's Figure 7 shows GET latency independent of policy).

        The hit path is deliberately flat: one hash probe, an inlined
        expiry check, and a policy touch through the reference cached on
        the slab class — no ``policy_for`` resolution, no rebalancer
        virtual call when the NullRebalancer is installed.
        """
        on_request = self._on_request
        if on_request is not None:
            on_request()
        item = self.hashtable.find(key)
        if item is None:
            if self.tier is not None:
                item = self._promote_from_tier(key)
                if item is not None:
                    self._count_get_hit()
                    return item
            self._count_get_miss()
            return None
        now = self.clock._now
        exptime = item.exptime
        if exptime != NEVER_EXPIRES and now >= exptime:
            self._unlink_item(item, item.slab.owner)
            stats = self.stats
            stats.get_expired += 1
            stats.get_misses += 1
            return None
        self._count_get_hit()
        item.last_access = now
        slab = item.slab
        slab.last_access = now
        slab_class = slab.owner
        policy = slab_class.policy
        if policy is None:
            policy = self.policy_for(slab_class)
        policy.touch(item)
        return item

    def get_many(self, keys) -> List[Optional[Item]]:
        """Vectored GET: one item (or ``None``) per key, in key order.

        The per-key semantics are exactly :meth:`get` (expiry, policy
        touch, tier promotion, stats); the vectored form exists so the
        serving layer can dispatch a whole MGET frame in one store call —
        one dispatch entry on the protocol engine.
        """
        get = self.get
        return [get(key) for key in keys]

    def set_many(self, entries) -> List[object]:
        """Vectored SET of ``(key, value, cost, exptime, flags[, version])``.

        Returns one result per entry, in order: the stored :class:`Item`
        on success, or the raised storage error instance
        (:class:`ObjectTooLargeError` / :class:`OutOfMemoryError` /
        :class:`NotStoredError` for a last-writer-wins reject) on
        failure — errors are per-entry data, never aborts, so one
        oversized value cannot void the rest of an MSET batch.
        """
        results: List[object] = []
        set_ = self.set
        # entry order matches set()'s positional signature, so 5-tuples
        # (legacy) and 6-tuples (with version) both splat straight through
        for entry in entries:
            try:
                results.append(set_(*entry))
            except (ObjectTooLargeError, OutOfMemoryError, NotStoredError) as exc:
                results.append(exc)
        return results

    def contains(self, key: bytes) -> bool:
        """Presence check without stats or policy side effects."""
        item = self.hashtable.find(key)
        return item is not None and not item.expired(self.clock.now)

    def set(
        self,
        key: bytes,
        value: bytes,
        cost: int = 0,
        exptime: float = NEVER_EXPIRES,
        flags: int = 0,
        version: int = 0,
    ) -> Item:
        """SET: unconditionally store, with the paper's optional cost.

        A nonzero ``version`` makes the store conditional on last-writer-
        wins: if the live item carries a strictly newer version the write
        raises :class:`NotStoredError` (answered ``NOT_STORED`` on the
        wire) and the newer value survives.  Version 0 (the default)
        keeps unconditional memcached semantics.
        """
        if self._on_request is not None:
            self._on_request()
        return self._store_item(key, value, cost, exptime, flags,
                                version=version)

    def add(self, key: bytes, value: bytes, cost: int = 0,
            exptime: float = NEVER_EXPIRES, flags: int = 0) -> Item:
        """ADD: store only if the key is absent (else NOT_STORED)."""
        if self._on_request is not None:
            self._on_request()
        if self.contains(key):
            raise NotStoredError(f"key {key!r} already stored")
        return self._store_item(key, value, cost, exptime, flags)

    def replace(self, key: bytes, value: bytes, cost: int = 0,
                exptime: float = NEVER_EXPIRES, flags: int = 0) -> Item:
        """REPLACE: store only if the key is present (else NOT_STORED)."""
        if self._on_request is not None:
            self._on_request()
        if not self.contains(key):
            raise NotStoredError(f"key {key!r} not stored")
        return self._store_item(key, value, cost, exptime, flags)

    def _promote_from_tier(self, key: bytes) -> Optional[Item]:
        """RAM-miss fallthrough: promote a live tier record back into RAM.

        The record is re-inserted with its original cost (so the
        replacement policy values it exactly as the client's SET did) and
        counted as a ``tier_promotion``, not a client SET; the flash copy
        is invalidated because the RAM copy is authoritative again.
        """
        tier = self.tier
        span = child_span("tier.read")
        record = tier.lookup(key)
        if span is not None:
            # attrs are computed only when the span exists, so the
            # untraced fallthrough pays one ContextVar read and nothing else
            finish_span(
                span, key_fp=key_fingerprint(key), hit=record is not None,
                reads=getattr(tier, "last_lookup_reads", 0),
            )
        if record is None:
            return None
        stats = self.stats
        stats.tier_hits += 1
        promote = child_span("tier.promote")
        item = self._store_item(
            key, record.value, record.cost, record.exptime, record.flags, False
        )
        if promote is not None:
            finish_span(
                promote, key_fp=key_fingerprint(key),
                nbytes=len(record.value),
            )
        stats.tier_promotions += 1
        return item

    def _store_item(self, key: bytes, value: bytes, cost: int,
                    exptime: float, flags: int, count_set: bool = True,
                    version: int = 0) -> Item:
        old = self.hashtable.find(key)
        if version:
            hlc = self.hlc
            if hlc is not None:
                hlc.observe(version)
            # last-writer-wins: a strictly newer stored version survives;
            # an equal version re-stores (idempotent anti-entropy repair)
            if old is not None and old.version > version:
                self.stats.lww_rejects += 1
                raise NotStoredError(
                    f"key {key!r} holds newer version {old.version}"
                )
        elif self.hlc is not None:
            # replica member: stamp locally-originated unversioned writes
            # so they still participate in LWW between replicas
            version = self.hlc.tick()
        if old is not None:
            self._unlink_item(old, old.slab.owner)
        tier = self.tier
        if tier is not None:
            # any flash copy is stale the moment RAM stores a new value
            tier.invalidate(key)
        item = Item(key=key, value=value, cost=cost, flags=flags,
                    exptime=exptime, version=version)
        slab_class = self.allocator.class_for_size(item.footprint)
        slab, index = self._allocate_chunk(slab_class)
        slab_class.store_item(item, slab, index)
        self.hashtable.insert(item)
        now = self.clock._now
        item.last_access = now
        slab.last_access = now
        self._cas_counter += 1
        item.cas_unique = self._cas_counter
        policy = slab_class.policy
        if policy is None:
            policy = self.policy_for(slab_class)
        policy.insert(item, cost)
        if count_set:
            self._count_set()
        return item

    def append(self, key: bytes, suffix: bytes) -> Item:
        """APPEND: add ``suffix`` after an existing value (else NOT_STORED).

        As in memcached, the item is reallocated (its size class may
        change); flags, expiry, and cost are preserved.
        """
        if self._on_request is not None:
            self._on_request()
        item = self.hashtable.find(key)
        if item is None or item.expired(self.clock.now):
            raise NotStoredError(f"key {key!r} not stored")
        return self._store_item(
            key, item.value + suffix, item.cost, item.exptime, item.flags
        )

    def prepend(self, key: bytes, prefix: bytes) -> Item:
        """PREPEND: add ``prefix`` before an existing value (else NOT_STORED)."""
        if self._on_request is not None:
            self._on_request()
        item = self.hashtable.find(key)
        if item is None or item.expired(self.clock.now):
            raise NotStoredError(f"key {key!r} not stored")
        return self._store_item(
            key, prefix + item.value, item.cost, item.exptime, item.flags
        )

    def cas(self, key: bytes, value: bytes, cas_unique: int, cost: int = 0,
            exptime: float = NEVER_EXPIRES, flags: int = 0) -> Item:
        """CAS: store only if the item is unchanged since ``cas_unique``.

        Raises :class:`CasMismatchError` when the token is stale (memcached's
        EXISTS) and :class:`NotStoredError` when the key vanished (NOT_FOUND).
        """
        if self._on_request is not None:
            self._on_request()
        item = self.hashtable.find(key)
        if item is None or item.expired(self.clock.now):
            raise NotStoredError(f"key {key!r} not stored")
        if item.cas_unique != cas_unique:
            from repro.kvstore.errors import CasMismatchError

            raise CasMismatchError(
                f"key {key!r} modified since cas token {cas_unique}"
            )
        return self._store_item(key, value, cost, exptime, flags)

    def incr(self, key: bytes, delta: int = 1) -> int:
        """INCR: add ``delta`` to a decimal-ASCII value; returns the result.

        Like memcached: the key must exist (NOT_FOUND -> NotStoredError) and
        hold an unsigned decimal number (else ValueError); underflow clamps
        at zero on DECR.
        """
        if self._on_request is not None:
            self._on_request()
        item = self.hashtable.find(key)
        if item is None or item.expired(self.clock.now):
            raise NotStoredError(f"key {key!r} not stored")
        try:
            current = int(item.value)
        except ValueError:
            raise ValueError(
                "cannot increment or decrement non-numeric value"
            ) from None
        if current < 0:
            raise ValueError("cannot increment or decrement non-numeric value")
        fresh = max(current + delta, 0)
        self._store_item(
            key, b"%d" % fresh, item.cost, item.exptime, item.flags
        )
        return fresh

    def decr(self, key: bytes, delta: int = 1) -> int:
        """DECR: subtract ``delta``, clamping at zero (memcached semantics)."""
        return self.incr(key, -delta)

    def delete(self, key: bytes) -> bool:
        """DELETE: returns True if the key was present and removed.

        With a tier attached the flash copy is dropped too — a delete
        must never be undone by a later tier fallthrough.
        """
        if self._on_request is not None:
            self._on_request()
        tier = self.tier
        item = self.hashtable.find(key)
        if item is None:
            if tier is not None and tier.invalidate(key):
                self.stats.deletes += 1
                return True
            self.stats.delete_misses += 1
            return False
        if tier is not None:
            tier.invalidate(key)
        self._unlink_item(item, item.slab.owner)
        self.stats.deletes += 1
        return True

    def touch_ttl(self, key: bytes, exptime: float) -> bool:
        """TOUCH: update an item's expiry without fetching it."""
        if self._on_request is not None:
            self._on_request()
        item = self.hashtable.find(key)
        if item is None or item.expired(self.clock.now):
            return False
        item.exptime = exptime
        return True

    def flush_all(self) -> int:
        """Drop every cached item (both tiers); returns the number removed."""
        if self._on_request is not None:
            self._on_request()
        removed = 0
        for item in list(self.hashtable.items()):
            self._unlink_item(item, item.slab.owner)
            removed += 1
        if self.tier is not None:
            removed += self.tier.flush()
        return removed

    # -- anti-entropy ----------------------------------------------------------------

    def digest(self, nslots: int) -> List[tuple]:
        """Per-slot (count, hash) summary of live keys for anti-entropy.

        Keys are bucketed by ``fnv1a_64(key) % nslots``; each slot's hash
        is the XOR of per-item ``fnv1a_64(key \\x00 version)`` values, so
        it is order-independent and two stores holding the same key/version
        sets produce identical digests.  Expired items are skipped (not
        deleted — digests must be read-only).  Returns a sorted list of
        ``(slot, count, hash)`` for non-empty slots only.
        """
        now = self.clock.now
        counts: dict = {}
        hashes: dict = {}
        for item in self.hashtable.items():
            if item.expired(now):
                continue
            key = item.key
            slot = fnv1a_64(key) % nslots
            counts[slot] = counts.get(slot, 0) + 1
            acc = fnv1a_64(b"%s\x00%d" % (key, item.version))
            hashes[slot] = hashes.get(slot, 0) ^ acc
        return sorted((slot, counts[slot], hashes[slot]) for slot in counts)

    def key_entries(self, slot: int, nslots: int) -> List[tuple]:
        """Metadata for live keys in one digest slot, for repair/bootstrap.

        Returns ``(key, version, cost, flags, exptime)`` per item —
        everything but the value (values travel over MGET so large
        payloads ride the batched path).  Read-only, like :meth:`digest`.
        """
        now = self.clock.now
        out = []
        for item in self.hashtable.items():
            if item.expired(now) or fnv1a_64(item.key) % nslots != slot:
                continue
            out.append(
                (item.key, item.version, item.cost, item.flags, item.exptime)
            )
        out.sort()
        return out

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.hashtable)

    @property
    def live_bytes(self) -> int:
        return sum(cls.live_bytes for cls in self.allocator.classes)

    def class_stats(self) -> List[ClassStats]:
        """Per-class snapshots for live classes (reports, rebalancer tests)."""
        out = []
        for cls in self.allocator.classes:
            if cls.num_slabs == 0 and cls.live_items == 0:
                continue
            out.append(
                ClassStats(
                    class_id=cls.class_id,
                    chunk_size=cls.chunk_size,
                    num_slabs=cls.num_slabs,
                    live_items=cls.live_items,
                    live_bytes=cls.live_bytes,
                    evictions=cls.evictions,
                    rebalance_evictions=cls.rebalance_evictions,
                    average_cost_per_byte=cls.average_cost_per_byte(),
                )
            )
        return out

    def publish_metrics(self) -> None:
        """Refresh pull-style gauges in :attr:`metrics` from live state.

        Called right before exposition (``stats metrics`` / a Prometheus
        scrape) so per-class cost-per-byte and occupancy gauges agree with
        :meth:`class_stats` at the instant of the read, without paying any
        per-operation bookkeeping.
        """
        registry = self.metrics
        registry.gauge("store_curr_items", help="live items in the store").set(
            len(self)
        )
        registry.gauge("store_live_bytes", help="live value bytes stored").set(
            self.live_bytes
        )
        registry.gauge(
            "store_memory_used_bytes", help="bytes of slab memory allocated"
        ).set(self.allocator.memory_used)
        registry.gauge(
            "store_memory_limit_bytes", help="configured memory limit"
        ).set(self.allocator.memory_limit)
        for snapshot in self.class_stats():
            snapshot.publish(registry)
        if self.tier is not None:
            self.tier.publish_metrics()

    def check_invariants(self) -> None:
        """Cross-structure consistency (used by property/integration tests)."""
        self.allocator.check_invariants()
        hash_count = len(self.hashtable)
        policy_count = sum(len(p) for p in self._policies.values())
        alloc_count = sum(cls.live_items for cls in self.allocator.classes)
        if not (hash_count == policy_count == alloc_count):
            raise AssertionError(
                f"item counts diverge: hash={hash_count} "
                f"policy={policy_count} alloc={alloc_count}"
            )
        find = self.hashtable.find
        for item in self.hashtable.items():
            if find(item.key) is not item:
                raise AssertionError(f"index does not map its key to {item!r}")
            if item.slab is None or item.slab.owner is None:
                raise AssertionError(f"indexed item has no slab: {item!r}")
            if item.slab.items.get(item.chunk_index) is not item:
                raise AssertionError(f"slab chunk mapping broken for {item!r}")
