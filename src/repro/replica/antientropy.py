"""Anti-entropy: detect and repair divergence inside replica groups.

Quorum writes keep replicas converged *while every member is up*; a
member that was down (or partitioned) during a write comes back holding
stale or missing keys.  The repairer closes that gap the way Dynamo-style
stores do, but with the cheap flat digest PR 9's wire protocol added
instead of Merkle trees: every member of a group answers one ``digest``
frame — per-slot ``(count, xor-hash)`` over its live ``(key, version)``
pairs — and only slots whose hashes disagree are expanded with ``keys``
and repaired key-by-key.

Repairs re-SET each winning ``(value, version)`` **at its original cost**
(and flags/exptime), carried in the ``keys`` listing precisely so the
receiving GD-Wheel policy computes the same H-value the original write
produced — a repaired replica ranks the item exactly like the primary
does, keeping the paper's cost-aware eviction honest across the group.
Versions make re-SETs idempotent: a member that already holds the winner
answers ``NOT_STORED`` and nothing changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.protocol.client import CostAwareClient
from repro.protocol.commands import ProtocolError

Endpoint = Tuple[str, int]

#: key -> (version, cost, flags, exptime) as reported by ``keys``
EntryMap = Dict[bytes, Tuple[int, int, int, float]]


class RepairReport:
    """What one anti-entropy sweep saw and did."""

    __slots__ = (
        "groups_checked", "groups_skipped", "slots_diverged",
        "keys_repaired", "keys_failed", "errors",
    )

    def __init__(self) -> None:
        #: groups with >= 2 reachable members that were compared
        self.groups_checked = 0
        #: groups skipped because fewer than 2 members answered
        self.groups_skipped = 0
        #: digest slots whose (count, hash) disagreed across members
        self.slots_diverged = 0
        #: re-SETs that landed (STORED, or NOT_STORED = already newer)
        self.keys_repaired = 0
        #: re-SETs the target refused (object too large / out of memory)
        self.keys_failed = 0
        #: (group, member, error string) for members that dropped mid-sweep
        self.errors: List[Tuple[str, str, str]] = []

    @property
    def clean(self) -> bool:
        """True when the sweep found no divergence and hit no errors."""
        return (
            self.slots_diverged == 0
            and self.groups_skipped == 0
            and not self.errors
        )

    def __repr__(self) -> str:
        return (
            f"RepairReport(checked={self.groups_checked}, "
            f"skipped={self.groups_skipped}, "
            f"diverged={self.slots_diverged}, "
            f"repaired={self.keys_repaired}, failed={self.keys_failed}, "
            f"errors={len(self.errors)})"
        )


class AntiEntropyRepairer:
    """Digest-compare-and-repair over a fleet of replica groups.

    Uses short-lived synchronous connections (one per member per sweep) —
    the sweep runs from a background thread or an operator tool, never on
    the serving path.

    Args:
        group_endpoints: group name -> {member name -> (host, port)}.
        nslots: digest slots per comparison.  More slots = finer
            divergence localisation (fewer keys listed per diverged
            slot), at one ``SLOT`` line each on the wire.
        batch: keys per MGET when pulling winning values.
        timeout: per-member TCP connect/read timeout.
    """

    def __init__(
        self,
        group_endpoints: Dict[str, Dict[str, Endpoint]],
        nslots: int = 64,
        batch: int = 256,
        timeout: float = 5.0,
    ) -> None:
        if nslots < 1:
            raise ValueError("nslots must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.group_endpoints = {
            group: dict(members)
            for group, members in group_endpoints.items()
        }
        self.nslots = nslots
        self.batch = batch
        self.timeout = timeout

    # -- connection plumbing ---------------------------------------------------

    def _connect(self, endpoint: Endpoint) -> CostAwareClient:
        from repro.protocol.client import TCPTransport

        return CostAwareClient(
            TCPTransport(endpoint[0], endpoint[1], timeout=self.timeout)
        )

    def _connect_group(
        self, group: str, report: RepairReport
    ) -> Dict[str, CostAwareClient]:
        clients: Dict[str, CostAwareClient] = {}
        for member, endpoint in self.group_endpoints[group].items():
            try:
                clients[member] = self._connect(endpoint)
            except OSError as exc:
                report.errors.append((group, member, str(exc)))
        return clients

    @staticmethod
    def _close_all(clients: Iterable[CostAwareClient]) -> None:
        for client in clients:
            try:
                client.close()
            except OSError:
                pass

    # -- one sweep -------------------------------------------------------------

    def run_once(self) -> RepairReport:
        """Compare digests in every group and repair what diverged."""
        report = RepairReport()
        for group in self.group_endpoints:
            self._repair_group(group, report)
        return report

    def _repair_group(self, group: str, report: RepairReport) -> None:
        clients = self._connect_group(group, report)
        try:
            if len(clients) < 2:
                # nothing to compare against — a lone survivor is, by
                # definition, the group's truth until a peer returns
                report.groups_skipped += 1
                return
            digests: Dict[str, Dict[int, Tuple[int, int]]] = {}
            for member, client in list(clients.items()):
                try:
                    digests[member] = client.digest(self.nslots).as_map()
                except (OSError, ConnectionError) as exc:
                    report.errors.append((group, member, str(exc)))
                    client.close()
                    del clients[member]
            if len(digests) < 2:
                report.groups_skipped += 1
                return
            report.groups_checked += 1
            diverged = self._diverged_slots(digests.values())
            report.slots_diverged += len(diverged)
            for slot in diverged:
                self._repair_slot(group, clients, slot, report)
        finally:
            self._close_all(clients.values())

    def _diverged_slots(
        self, digests: Iterable[Dict[int, Tuple[int, int]]]
    ) -> List[int]:
        slots: Dict[int, set] = {}
        for digest in digests:
            for slot in range(self.nslots):
                slots.setdefault(slot, set()).add(digest.get(slot, (0, 0)))
        return sorted(slot for slot, seen in slots.items() if len(seen) > 1)

    def _repair_slot(
        self,
        group: str,
        clients: Dict[str, CostAwareClient],
        slot: int,
        report: RepairReport,
    ) -> None:
        # 1. list the slot on every member
        listings: Dict[str, EntryMap] = {}
        for member, client in list(clients.items()):
            try:
                response = client.key_entries(slot, self.nslots)
            except (OSError, ConnectionError) as exc:
                report.errors.append((group, member, str(exc)))
                client.close()
                del clients[member]
                continue
            listings[member] = {
                key: (version, cost, flags, exptime)
                for key, version, cost, flags, exptime in response.entries
            }
        if len(listings) < 2:
            return
        # 2. the winner per key = the highest version anywhere; a member
        #    reporting version 0 (an unversioned local write) never beats
        #    a versioned entry, and version-0 entries only propagate to
        #    members missing the key outright
        winners: Dict[bytes, Tuple[int, str]] = {}  # key -> (version, member)
        for member, entries in listings.items():
            for key, (version, _, _, _) in entries.items():
                best = winners.get(key)
                if best is None or version > best[0]:
                    winners[key] = (version, member)
        # 3. what each member is missing or holding stale
        needs: Dict[str, List[bytes]] = {}
        for key, (version, source) in winners.items():
            for member in listings:
                if member == source:
                    continue
                held = listings[member].get(key)
                if held is None or (version and held[0] < version):
                    needs.setdefault(member, []).append(key)
        if not needs:
            return
        # 4. pull winning values (batched per source), push re-SETs that
        #    carry the original version AND cost so the target's GD-Wheel
        #    H-value matches the origin's
        by_source: Dict[str, List[bytes]] = {}
        for keys in needs.values():
            for key in keys:
                by_source.setdefault(winners[key][1], []).append(key)
        values: Dict[bytes, bytes] = {}
        for source, keys in by_source.items():
            client = clients.get(source)
            if client is None:
                continue
            unique = list(dict.fromkeys(keys))
            for start in range(0, len(unique), self.batch):
                chunk = unique[start:start + self.batch]
                try:
                    values.update(client.get_many(chunk))
                except (OSError, ConnectionError) as exc:
                    report.errors.append((group, source, str(exc)))
                    break
        for member, keys in needs.items():
            client = clients.get(member)
            if client is None:
                continue
            source_listing = listings
            for key in keys:
                value = values.get(key)
                if value is None:
                    continue  # expired/evicted between listing and fetch
                version, source = winners[key]
                _, cost, flags, exptime = source_listing[source][key]
                try:
                    client.set(
                        key, value, cost=cost, exptime=exptime,
                        flags=flags, version=version,
                    )
                except (OSError, ConnectionError) as exc:
                    report.errors.append((group, member, str(exc)))
                    break
                except ProtocolError:
                    # SERVER_ERROR (too large / OOM) — the target simply
                    # cannot hold this item; eviction pressure differs.
                    # Anything else is a bug and propagates.
                    report.keys_failed += 1
                else:
                    # STORED or NOT_STORED both leave the member holding
                    # a version >= the winner: converged either way
                    report.keys_repaired += 1

    # -- convergence probe -----------------------------------------------------

    def converged(self, group: Optional[str] = None) -> bool:
        """Are replica digests identical right now?

        Compares every member's full digest (all ``nslots`` slots) within
        ``group``, or within every group when ``group`` is None.  Any
        unreachable member counts as *not* converged — absence of
        evidence is not convergence.
        """
        groups = [group] if group is not None else list(self.group_endpoints)
        for name in groups:
            clients: Dict[str, CostAwareClient] = {}
            try:
                for member, endpoint in self.group_endpoints[name].items():
                    try:
                        clients[member] = self._connect(endpoint)
                    except OSError:
                        return False
                seen = set()
                for client in clients.values():
                    try:
                        digest = client.digest(self.nslots)
                    except (OSError, ConnectionError):
                        return False
                    seen.add(tuple(sorted(digest.as_map().items())))
                if len(seen) > 1:
                    return False
            finally:
                self._close_all(clients.values())
        return True
