"""Scatter/gather over a consistent-hash ring of async clients.

``AsyncStorePool({node: AsyncStoreClient}, replicas=100, tracer=None)`` is
the one routed pool, :class:`~repro.replica.pool.GroupPool`, with every
client a group of one that it calls directly.  Node requests run
concurrently: a ``multi_get`` over N nodes costs one slowest-node round
trip, not the sum.
"""

from repro.replica.pool import GroupPool

AsyncStorePool = GroupPool
