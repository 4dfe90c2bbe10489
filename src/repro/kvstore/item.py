"""Cached item metadata — the analogue of memcached's ``item`` struct.

Each cached key-value pair carries (Section 4.1 of the paper):

* the key and value (here kept as ``bytes``),
* sizes, an expiration time, and flags,
* replacement-policy linkage (inherited from :class:`PolicyEntry` — the
  intrusive list node plus the policy's bookkeeping fields), and
* the paper's addition: a **cost** field.  The paper uses 2 bytes; because
  memcached rounds item headers to an 8-byte boundary the field is free.
  We model the same header size either way.

``ITEM_HEADER_SIZE`` mirrors the 64-bit memcached header: 48 bytes of
pointers/sizes/times plus suffix bookkeeping, rounded to 56.  An item's
*footprint* (what the slab allocator charges) is header + key + value.
memcached's header also holds the item's hash-chain link; here the index
is a ``dict`` (:mod:`repro.kvstore.hashtable`), so an item carries no index
linkage, but the modelled header size keeps those bytes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import PolicyEntry

#: Simulated per-item metadata overhead in bytes (memcached's rounded header,
#: including the paper's 2-byte cost field which fits in the rounding slack).
ITEM_HEADER_SIZE = 56

#: Sentinel meaning "never expires".
NEVER_EXPIRES = 0


class Item(PolicyEntry):
    """A cached key-value pair plus all store metadata."""

    __slots__ = (
        "value",
        "flags",
        "exptime",
        "slab",
        "chunk_index",
        "last_access",
        "cas_unique",
        "version",
    )

    def __init__(
        self,
        key: bytes,
        value: bytes,
        cost: int = 0,
        flags: int = 0,
        exptime: float = NEVER_EXPIRES,
        version: int = 0,
    ) -> None:
        if not isinstance(key, bytes):
            raise TypeError("key must be bytes")
        if not isinstance(value, bytes):
            raise TypeError("value must be bytes")
        # Base-class field setup is flattened inline: an Item is built on
        # every SET, and the two super().__init__ frames (PolicyEntry ->
        # IntrusiveNode) are measurable in the simulation driver.  Keep in
        # sync with those classes' __init__ bodies.
        self._prev = None
        self._next = None
        self._list = None
        self.cost = cost
        self.size = ITEM_HEADER_SIZE + len(key) + len(value)
        self.key = key
        self.policy_h = 0
        self.policy_seq = 0
        self.policy_slot = None
        self.policy_ref = None
        self.value = value
        self.flags = flags
        #: absolute expiry time on the simulated clock; 0 = never
        self.exptime = exptime
        #: the slab currently housing this item (set by the allocator)
        self.slab = None
        #: chunk index within the slab (set by the allocator)
        self.chunk_index: Optional[int] = None
        #: last access time on the simulated clock (for slab LRU picks)
        self.last_access = 0.0
        #: compare-and-swap token (bumped on every mutation)
        self.cas_unique = 0
        #: hybrid-logical-clock replication version (0 = unversioned);
        #: last-writer-wins resolution compares these across replicas
        self.version = version

    @property
    def footprint(self) -> int:
        """Bytes the allocator must provide: header + key + value."""
        return self.size

    def expired(self, now: float) -> bool:
        """Whether the item is past its expiry at simulated time ``now``."""
        return self.exptime != NEVER_EXPIRES and now >= self.exptime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Item(key={self.key!r}, {len(self.value)}B value, "
            f"cost={self.cost}, exptime={self.exptime})"
        )
