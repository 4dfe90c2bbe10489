"""Stateful property test: the store's key index vs an exact dict model.

Unlike the whole-store machine in ``tests/integration``, this model is
exact: the ``on_evict`` hook tells it which keys eviction took, so after
every SET / DELETE / eviction / ``flush_all`` the index must hold exactly
the model's keys, each mapped to the item carrying the latest value.

A SET whose size class owns no slab once the memory limit is reached
raises ``OutOfMemoryError`` (slab calcification, as in memcached without
a rebalancer).  The old value is unlinked before allocation, so the model
drops the key and the index must no longer hold it.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore, OutOfMemoryError

KEYS = st.integers(0, 60).map(lambda i: b"key-%02d" % i)
VALUES = st.binary(min_size=0, max_size=900)
COSTS = st.integers(0, 450)


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        #: key -> latest value; exact, because evictions are reported
        self.model = {}
        self.evictions = 0
        self.store = KVStore(
            memory_limit=96 * 1024,
            slab_size=16 * 1024,
            policy_factory=lambda: GDWheelPolicy(num_queues=32, num_wheels=2),
            on_evict=self._evicted,
        )

    def _evicted(self, item, reason):
        assert self.model.pop(item.key) == item.value
        self.evictions += 1

    def _set(self, key, value, cost):
        try:
            item = self.store.set(key, value, cost=cost)
        except OutOfMemoryError:
            self.model.pop(key, None)
            assert key not in self.store.hashtable
            return
        self.model[key] = value
        assert self.store.hashtable.find(key) is item

    @rule(key=KEYS, value=VALUES, cost=COSTS)
    def set_(self, key, value, cost):
        self._set(key, value, cost)

    @rule(key=KEYS)
    def get(self, key):
        item = self.store.get(key)
        expected = self.model.get(key)
        assert (item is None) == (expected is None)
        if item is not None:
            assert item.value == expected

    @rule(key=KEYS)
    def delete(self, key):
        assert self.store.delete(key) == (self.model.pop(key, None) is not None)

    @rule(start=st.integers(0, 60), count=st.integers(1, 40))
    def evict_by_pressure(self, start, count):
        # a run of large SETs forces the policy to pick victims
        for i in range(count):
            key = b"key-%02d" % ((start + i) % 61)
            self._set(key, bytes([i % 256]) * 1500, cost=i)

    @rule()
    def flush_all(self):
        assert self.store.flush_all() == len(self.model)
        self.model.clear()

    @invariant()
    def index_equals_model(self):
        index = self.store.hashtable
        assert len(index) == len(self.model)
        assert {item.key: item.value for item in index.items()} == self.model
        for key, value in self.model.items():
            assert key in index
            assert index.find(key).value == value

    def teardown(self):
        self.store.check_invariants()


TestIndexStateful = IndexMachine.TestCase
TestIndexStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


def test_pressure_actually_evicts():
    """The machine's eviction rule is not vacuous at this geometry."""
    machine = IndexMachine()
    machine.evict_by_pressure(start=0, count=61)
    machine.index_equals_model()
    assert machine.evictions > 0
    machine.teardown()


def test_out_of_memory_set_drops_the_key():
    """Large values take every slab; a tiny SET then has no class to use."""
    machine = IndexMachine()
    machine.evict_by_pressure(start=26, count=15)
    machine.evict_by_pressure(start=0, count=26)
    assert b"key-00" in machine.model
    machine.set_(key=b"key-00", value=b"", cost=0)
    assert b"key-00" not in machine.model
    machine.index_equals_model()
    machine.teardown()
