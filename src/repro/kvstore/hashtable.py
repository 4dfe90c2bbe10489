"""The store's key index — memcached's ``assoc``, as a ``dict``.

memcached keeps its items in a chained hash table written in C; the
Python analogue of that is the built-in ``dict``, whose C hashing and
open addressing already give O(1) probes and amortized-O(1) growth.  The
index maps key bytes to the :class:`Item` holding them.

:func:`fnv1a_64` is kept for the places where a hash must agree across
processes (Python's ``hash`` of bytes is salted per process): anti-entropy
digest slots and replica primary rotation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.kvstore.item import Item

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class HashTable:
    """Key bytes -> :class:`Item`."""

    __slots__ = ("_items", "find")

    def __init__(self) -> None:
        self._items: Dict[bytes, Item] = {}
        #: ``find(key)`` -> the item or ``None`` (``dict.get``, bound once)
        self.find = self._items.get

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: bytes) -> bool:
        return key in self._items

    def insert(self, item: Item) -> None:
        """Insert a new item.  The key must not already be present."""
        items = self._items
        key = item.key
        if key in items:
            raise KeyError(f"duplicate key {key!r}")
        items[key] = item

    def delete(self, key: bytes) -> Optional[Item]:
        """Remove and return the item for ``key``, or ``None``."""
        return self._items.pop(key, None)

    def items(self) -> Iterator[Item]:
        """Iterate all items (unordered)."""
        return iter(self._items.values())
