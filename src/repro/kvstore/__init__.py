"""The memcached-like key-value store substrate.

Everything Section 4 of the paper touches: item metadata with the 2-byte
cost field, the key index (a ``dict``), the slab allocator with its size
classes, the store facade with memcached's command set, and the two slab
rebalancing policies of Section 5.
"""

from repro.kvstore.clock import SimClock
from repro.kvstore.errors import (
    CasMismatchError,
    NotStoredError,
    ObjectTooLargeError,
    OutOfMemoryError,
    SlabError,
    StoreError,
)
from repro.kvstore.hashtable import HashTable, fnv1a_64
from repro.kvstore.item import ITEM_HEADER_SIZE, NEVER_EXPIRES, Item
from repro.kvstore.rebalance import (
    CostAwareRebalancer,
    NullRebalancer,
    OriginalRebalancer,
    Rebalancer,
)
from repro.kvstore.slab import (
    DEFAULT_GROWTH_FACTOR,
    DEFAULT_MIN_CHUNK,
    DEFAULT_SLAB_SIZE,
    Slab,
    SlabAllocator,
    SlabClass,
)
from repro.kvstore.stats import ClassStats, StoreStats
from repro.kvstore.store import KVStore

__all__ = [
    "CasMismatchError",
    "ClassStats",
    "CostAwareRebalancer",
    "DEFAULT_GROWTH_FACTOR",
    "DEFAULT_MIN_CHUNK",
    "DEFAULT_SLAB_SIZE",
    "HashTable",
    "ITEM_HEADER_SIZE",
    "Item",
    "KVStore",
    "NEVER_EXPIRES",
    "NotStoredError",
    "NullRebalancer",
    "ObjectTooLargeError",
    "OriginalRebalancer",
    "OutOfMemoryError",
    "Rebalancer",
    "SimClock",
    "Slab",
    "SlabAllocator",
    "SlabClass",
    "SlabError",
    "StoreError",
    "StoreStats",
    "fnv1a_64",
]
