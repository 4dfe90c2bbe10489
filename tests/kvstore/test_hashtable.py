"""Key-index tests (FNV-1a vectors, the dict-backed table, a stateful
model comparison)."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.kvstore import HashTable, Item, fnv1a_64


def make_item(key: bytes) -> Item:
    return Item(key=key, value=b"v")


class TestFNV:
    def test_known_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_stays_64_bit(self):
        assert fnv1a_64(b"x" * 1000) < 2**64


class TestBasics:
    def test_find_missing_returns_none(self):
        table = HashTable()
        assert table.find(b"nope") is None
        assert b"nope" not in table

    def test_insert_then_find(self):
        table = HashTable()
        item = make_item(b"k1")
        table.insert(item)
        assert table.find(b"k1") is item
        assert b"k1" in table
        assert len(table) == 1

    def test_duplicate_insert_rejected(self):
        table = HashTable()
        table.insert(make_item(b"k1"))
        with pytest.raises(KeyError):
            table.insert(make_item(b"k1"))

    def test_delete_returns_item(self):
        table = HashTable()
        item = make_item(b"k1")
        table.insert(item)
        assert table.delete(b"k1") is item
        assert table.find(b"k1") is None
        assert len(table) == 0

    def test_delete_missing_returns_none(self):
        table = HashTable()
        assert table.delete(b"nope") is None

    def test_items_iterates_everything(self):
        table = HashTable()
        keys = {f"key-{i}".encode() for i in range(50)}
        for key in keys:
            table.insert(make_item(key))
        assert {item.key for item in table.items()} == keys


class HashTableMachine(RuleBasedStateMachine):
    """Stateful property test: the table behaves like a dict under any
    interleaving of inserts, deletes, and lookups."""

    def __init__(self):
        super().__init__()
        self.table = HashTable()
        self.model = {}

    keys = Bundle("keys")

    @rule(target=keys, key=st.binary(min_size=1, max_size=12))
    def gen_key(self, key):
        return key

    @rule(key=keys)
    def insert(self, key):
        if key in self.model:
            with pytest.raises(KeyError):
                self.table.insert(make_item(key))
        else:
            item = make_item(key)
            self.table.insert(item)
            self.model[key] = item

    @rule(key=keys)
    def delete(self, key):
        expected = self.model.pop(key, None)
        assert self.table.delete(key) is expected

    @rule(key=keys)
    def find(self, key):
        assert self.table.find(key) is self.model.get(key)

    @invariant()
    def count_matches(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def iteration_matches(self):
        assert {i.key for i in self.table.items()} == set(self.model)


TestHashTableStateful = HashTableMachine.TestCase
TestHashTableStateful.settings = settings(max_examples=50, deadline=None)
