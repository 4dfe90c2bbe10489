"""Rebuild a respawned replica's key range from a live peer.

A replica that crashes and respawns comes back *empty* — correct for a
cache, but it would answer misses for every key its group owns until the
workload refills it (and, under replication, it would drag the group's
digests apart until anti-entropy catches up).  :func:`bootstrap_store`
closes that window before the worker opens its port: it streams the
peer's full listing slot-by-slot (``keys``) and pulls values in batched
MGET frames (the PR 8 batched protocol — one round trip per ``batch``
keys), storing each item locally **with its original version and cost**
so last-writer-wins stays correct and GD-Wheel ranks the warmed items
exactly as the peer does.

Bootstrap is best-effort by design: a peer dying mid-stream leaves a
partially-warmed store, which is strictly better than an empty one, and
the anti-entropy loop repairs the remainder.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.kvstore.errors import NotStoredError, OutOfMemoryError
from repro.kvstore.slab import ObjectTooLargeError
from repro.protocol.client import CostAwareClient, TCPTransport

Endpoint = Tuple[str, int]


def bootstrap_store(
    store,
    peers: Sequence[Endpoint],
    nslots: int = 64,
    batch: int = 256,
    timeout: float = 5.0,
) -> int:
    """Warm ``store`` from the first reachable peer; returns keys loaded.

    Args:
        store: the local :class:`~repro.kvstore.store.KVStore` — written
            directly, before any server accepts connections.
        peers: (host, port) of same-group members to try, in order.
        nslots: listing granularity (one ``keys`` round trip per slot).
        batch: keys per MGET value pull.
        timeout: per-peer TCP connect/read timeout.

    Items the local store must reject — too large for its limits, or out
    of memory under its GD-Wheel pressure — are skipped, not fatal: the
    respawned member may be configured smaller than its peer, and a cache
    warm-up must never crash the worker it warms.  Every loaded key bumps
    ``stats.bootstrap_keys``.
    """
    for host, port in peers:
        try:
            client = CostAwareClient(TCPTransport(host, port, timeout=timeout))
        except OSError:
            continue
        try:
            loaded = _stream_from_peer(store, client, nslots, batch)
        except (OSError, ConnectionError):
            # peer died mid-stream: keep what we got, let anti-entropy
            # finish the job rather than hunting for another peer and
            # re-pulling everything
            return _loaded_so_far(store)
        finally:
            try:
                client.close()
            except OSError:
                pass
        return loaded
    return 0


def _loaded_so_far(store) -> int:
    stats = getattr(store, "stats", None)
    return getattr(stats, "bootstrap_keys", 0) if stats is not None else 0


def _stream_from_peer(
    store, client: CostAwareClient, nslots: int, batch: int
) -> int:
    loaded = 0
    stats = getattr(store, "stats", None)
    for slot in range(nslots):
        entries = client.key_entries(slot, nslots).entries
        meta = {
            key: (version, cost, flags, exptime)
            for key, version, cost, flags, exptime in entries
        }
        keys = list(meta)
        for start in range(0, len(keys), batch):
            chunk = keys[start:start + batch]
            values = client.get_many(chunk)
            for key in chunk:
                value = values.get(key)
                if value is None:
                    continue  # expired/evicted on the peer mid-pull
                version, cost, flags, exptime = meta[key]
                try:
                    store.set(
                        key, value, cost=cost, exptime=exptime,
                        flags=flags, version=version,
                    )
                except NotStoredError:
                    continue  # already holds something newer
                except (ObjectTooLargeError, OutOfMemoryError):
                    continue  # local limits differ from the peer's
                loaded += 1
                if stats is not None:
                    stats.bootstrap_keys += 1
    return loaded
