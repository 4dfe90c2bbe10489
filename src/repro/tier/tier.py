"""The flash-tier facade: segments + mapping + CMT + GC + admission.

A :class:`FlashTier` is the second tier behind a
:class:`~repro.kvstore.store.KVStore`: evictions the RAM tier would drop
on the floor are offered to the admission filter and, if their
``cost/size`` clears the adaptive watermark, appended to the emulated
flash log.  A later RAM miss falls through to :meth:`lookup`; a tier hit
hands the record back to the store, which promotes it into RAM with its
original cost and invalidates the tier copy.

The tier is crash-safe by construction: the only mutable on-disk state
is append-only segment files, and reopening a directory replays them
(last write wins, torn tails truncated) to rebuild the in-RAM mapping
table.  Nothing acknowledged to the RAM tier is ever *lost* by a tier
crash — the tier is a recomputation-cost cache, not a durability layer —
but the reopen path must never serve a corrupt value, which the per-
record CRC guarantees.

Observability: counters are plain attributes (always correct, zero
dependency on a registry) mirrored into gauges/counters on
:meth:`publish_metrics`; the per-read latency histogram and the
spill/GC trace events stream live through whatever registry/trace the
owning store binds with :meth:`bind_observability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTrace, SpillEvent, TierGCEvent, key_fingerprint
from repro.tier.admission import CostPerByteAdmission
from repro.tier.cmt import CachedMappingTable
from repro.tier.gc import GarbageCollector
from repro.tier.mapping import MappingEntry, MappingTable
from repro.tier.segments import (
    SegmentStore,
    TierRecord,
    encode_record,
    record_size,
)

#: default emulated flash read latency (one page), microseconds
DEFAULT_READ_LATENCY_US = 90.0

#: default segment size — small enough that simulations exercise GC
DEFAULT_SEGMENT_BYTES = 256 * 1024


@dataclass(frozen=True)
class TierConfig:
    """Geometry and latency model of one emulated flash tier (picklable)."""

    capacity_bytes: int
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    num_translation_pages: int = 256
    cmt_pages: int = 64
    read_latency_us: float = DEFAULT_READ_LATENCY_US
    admission_alpha: float = 0.05
    admission_pressure_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("tier capacity_bytes must be positive")
        if self.segment_bytes <= 0:
            raise ValueError("tier segment_bytes must be positive")


class FlashTier:
    """Cost-aware spill tier over append-only emulated-flash segments."""

    def __init__(
        self,
        directory,
        config: TierConfig,
        clock=None,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ) -> None:
        """
        Args:
            directory: where segment files live; reopening the same
                directory recovers the tier's contents.
            config: tier geometry (capacity, segment size, CMT size, ...).
            clock: a :class:`~repro.kvstore.clock.SimClock`-like object
                (``.now``) for expiry checks; the owning store attaches
                its own via :meth:`bind_observability`.
            registry: metrics registry for the read-latency histogram; a
                private one is created when omitted and replaced when a
                store binds its own.
            trace: optional event trace for spill / GC events.
        """
        self.config = config
        self.directory = Path(directory)
        self.clock = clock
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        #: segment slots the capacity buys (>= 2 so GC always has a victim
        #: distinct from the active segment)
        self.max_segments = max(2, config.capacity_bytes // config.segment_bytes)
        self.segments = SegmentStore(self.directory, config.segment_bytes)
        self.mapping = MappingTable(num_pages=config.num_translation_pages)
        self.cmt = CachedMappingTable(capacity=config.cmt_pages)
        self.admission = CostPerByteAdmission(
            alpha=config.admission_alpha,
            pressure_floor=config.admission_pressure_floor,
        )
        self.gc = GarbageCollector(
            self.segments, self.mapping, self.admission,
            relocate=self._relocate, now=self._now,
        )
        self._active = None
        # lifetime counters (plain ints: correct with or without a registry)
        self.spills = 0
        self.spilled_bytes = 0
        self.full_rejects = 0
        self.oversize_rejects = 0
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.invalidations = 0
        self.data_reads = 0
        self.translation_reads = 0
        self.recovered_records = 0
        #: emulated page reads charged by the most recent :meth:`lookup`
        #: (read by tier.read span attribution; not part of snapshots)
        self.last_lookup_reads = 0
        self._read_hist = self.metrics.histogram(
            "tier_read_latency_us",
            help="emulated flash read latency per tier lookup (us)",
        )
        self._recover()

    # -- wiring -------------------------------------------------------------------

    def bind_observability(self, registry, trace, clock=None) -> None:
        """Adopt the owning store's registry/trace/clock (at construction,
        before any operations, so no samples are lost to the rebind)."""
        self.metrics = registry
        if trace is not None:
            self.trace = trace
        if clock is not None:
            self.clock = clock
        self._read_hist = registry.histogram(
            "tier_read_latency_us",
            help="emulated flash read latency per tier lookup (us)",
        )

    def _now(self) -> float:
        clock = self.clock
        return clock.now if clock is not None else 0.0

    def _recover(self) -> None:
        """Rebuild the mapping table from the segment logs (last write wins)."""
        for segment_id, offset, record in self.segments.recover():
            length = record_size(record.key, record.value)
            self.mapping.put(
                record.key,
                MappingEntry(segment_id, offset, length, record.cost),
            )
            self.recovered_records += 1
        self._update_pressure()

    # -- write path ---------------------------------------------------------------

    def spill(self, key: bytes, value: bytes, cost: int,
              flags: int = 0, exptime: float = 0.0) -> bool:
        """Offer one RAM evictee to the tier; True when it was stored."""
        size = record_size(key, value)
        if size > self.config.segment_bytes:
            self.oversize_rejects += 1
            return False
        admitted = self.admission.offer(cost, size)
        if self.trace is not None:
            self.trace.record(
                SpillEvent(
                    key_hash=key_fingerprint(key),
                    cost=cost,
                    size=size,
                    admitted=admitted,
                    watermark=round(self.admission.watermark, 6),
                )
            )
        if not admitted:
            return False
        payload = encode_record(key, value, cost, flags, exptime)
        segment = self._room_for(len(payload))
        if segment is None:
            self.full_rejects += 1
            # the filter said yes but flash had no room: undo the admit
            self.admission.admitted -= 1
            self.admission.rejected += 1
            return False
        offset = segment.append(payload)
        self.mapping.put(
            key, MappingEntry(segment.segment_id, offset, len(payload), cost)
        )
        self.spills += 1
        self.spilled_bytes += size
        self._update_pressure()
        return True

    def _room_for(self, nbytes: int, allow_gc: bool = True):
        """The segment to append ``nbytes`` into, rolling / GCing as needed.

        Returns ``None`` when the tier is full and GC cannot make progress
        (the caller rejects the spill).  With ``allow_gc=False`` (the GC's
        own relocation path) a fresh segment is always created — the
        victim's deletion at the end of the round restores the budget.
        """
        active = self._active
        if active is not None and active.has_room(nbytes, self.config.segment_bytes):
            return active
        if allow_gc:
            guard = 2 * self.max_segments
            while len(self.segments.segments) >= self.max_segments and guard > 0:
                guard -= 1
                exclude = self._active.segment_id if self._active else None
                round_stats = self.gc.run(exclude=exclude)
                if self.trace is not None and round_stats["victim"] >= 0:
                    self.trace.record(
                        TierGCEvent(
                            victim_segment=round_stats["victim"],
                            copied=round_stats["copied"],
                            dropped=round_stats["dropped"],
                            reclaimed_bytes=round_stats["reclaimed_bytes"],
                            watermark=round(self.admission.watermark, 6),
                        )
                    )
                if round_stats["victim"] < 0 or round_stats["reclaimed_bytes"] <= 0:
                    break
            if len(self.segments.segments) >= self.max_segments:
                self._update_pressure()
                return None
        self._active = self.segments.create_segment()
        return self._active

    def _relocate(self, key: bytes, record: TierRecord) -> None:
        """GC copy-forward: re-append ``record`` through the write path."""
        payload = encode_record(
            record.key, record.value, record.cost, record.flags, record.exptime
        )
        segment = self._room_for(len(payload), allow_gc=False)
        offset = segment.append(payload)
        self.mapping.put(
            key, MappingEntry(segment.segment_id, offset, len(payload), record.cost)
        )

    def _update_pressure(self) -> None:
        self.admission.set_pressure(
            self.segments.used_bytes / self.config.capacity_bytes
        )

    # -- read path ----------------------------------------------------------------

    def lookup(self, key: bytes) -> Optional[TierRecord]:
        """The live tier record for ``key``, or ``None`` on a tier miss.

        Charges one emulated data-page read per hit, plus one
        translation-page read when the key's mapping page is not CMT-
        resident.  Expired records are lazily invalidated and miss.
        """
        page_id, entry = self.mapping.get(key)
        reads = 0 if self.cmt.touch(page_id) else 1
        self.translation_reads += reads
        if entry is None:
            self.misses += 1
            self.last_lookup_reads = reads
            if reads:
                self._read_hist.observe(reads * self.config.read_latency_us)
            return None
        record = self.segments.read_record(entry.segment_id, entry.offset, entry.length)
        reads += 1
        self.data_reads += 1
        self.last_lookup_reads = reads
        self._read_hist.observe(reads * self.config.read_latency_us)
        if record is None or record.key != key:  # pragma: no cover - defensive
            self.mapping.remove(key)
            self.misses += 1
            return None
        if record.exptime and self._now() >= record.exptime:
            self.mapping.remove(key)
            self.expired += 1
            self.misses += 1
            return None
        self.hits += 1
        return record

    def contains(self, key: bytes) -> bool:
        """Presence check with no CMT, read, or stats side effects."""
        return key in self.mapping

    def invalidate(self, key: bytes) -> bool:
        """Drop the tier copy of ``key`` (re-SET / DELETE / promotion)."""
        if self.mapping.remove(key) is not None:
            self.invalidations += 1
            return True
        return False

    # -- lifecycle / introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self.mapping)

    @property
    def used_bytes(self) -> int:
        return self.segments.used_bytes

    @property
    def live_bytes(self) -> int:
        return self.mapping.live_bytes

    def flush(self) -> int:
        """Drop everything (``flush_all`` fell through): segments deleted."""
        removed = len(self.mapping)
        self.segments.clear()
        self.mapping.clear()
        self.cmt.clear()
        self._active = None
        self._update_pressure()
        return removed

    def close(self) -> None:
        """Flush and close segment file handles and drop the in-RAM index.

        The contents stay on disk.  A closed tier is empty; to reopen it,
        build a new :class:`FlashTier` on the same directory, which
        recovers the mapping from the segments.
        """
        self.segments.close()
        self.mapping.clear()
        self.cmt.clear()
        self._active = None

    def snapshot(self) -> dict:
        """One JSON-friendly dict with every tier statistic."""
        return {
            "entries": len(self.mapping),
            "segments": len(self.segments.segments),
            "max_segments": self.max_segments,
            "used_bytes": self.used_bytes,
            "live_bytes": self.live_bytes,
            "capacity_bytes": self.config.capacity_bytes,
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "expired": self.expired,
            "invalidations": self.invalidations,
            "full_rejects": self.full_rejects,
            "oversize_rejects": self.oversize_rejects,
            "data_reads": self.data_reads,
            "translation_reads": self.translation_reads,
            "recovered_records": self.recovered_records,
            "admission": self.admission.snapshot(),
            "cmt": self.cmt.snapshot(),
            "gc": self.gc.snapshot(),
        }

    def publish_metrics(self) -> None:
        """Mirror counters/gauges into the bound registry (pull-style).

        Called from :meth:`KVStore.publish_metrics` right before a
        ``stats metrics`` / Prometheus read, so the registry's tier series
        agree with :meth:`snapshot` at the instant of the read.
        """
        registry = self.metrics
        pairs = [
            ("tier_spills_total", "counter", self.spills,
             "evictions admitted and written to the flash tier"),
            ("tier_spilled_bytes_total", "counter", self.spilled_bytes,
             "record bytes written by spills (excl. GC relocation)"),
            ("tier_hits_total", "counter", self.hits,
             "tier lookups that returned a live record"),
            ("tier_misses_total", "counter", self.misses,
             "tier lookups that found nothing live"),
            ("tier_expired_total", "counter", self.expired,
             "tier records lazily dropped as expired on lookup"),
            ("tier_invalidations_total", "counter", self.invalidations,
             "tier copies dropped because RAM re-SET/DELETE/promoted them"),
            ("tier_admission_rejected_total", "counter",
             self.admission.rejected,
             "evictions refused by the cost-per-byte admission filter"),
            ("tier_full_rejects_total", "counter", self.full_rejects,
             "admitted evictions dropped because GC could not free space"),
            ("tier_data_reads_total", "counter", self.data_reads,
             "emulated flash data-page reads"),
            ("tier_translation_reads_total", "counter", self.translation_reads,
             "emulated flash translation-page reads (CMT misses)"),
            ("tier_cmt_hits_total", "counter", self.cmt.hits,
             "tier lookups whose translation page was CMT-resident"),
            ("tier_cmt_misses_total", "counter", self.cmt.misses,
             "tier lookups that had to fetch a translation page"),
            ("tier_gc_runs_total", "counter", self.gc.runs,
             "tier GC rounds executed"),
            ("tier_gc_copied_total", "counter", self.gc.records_copied,
             "records copied forward by tier GC"),
            ("tier_gc_dropped_total", "counter", self.gc.records_dropped,
             "records dropped by tier GC (dead, expired, or low value)"),
            ("tier_gc_reclaimed_bytes_total", "counter",
             self.gc.bytes_reclaimed, "flash bytes reclaimed by tier GC"),
        ]
        for name, kind, value, help_text in pairs:
            registry.counter(name, help=help_text).set(value)
        registry.gauge(
            "tier_entries", help="live entries in the flash tier"
        ).set(len(self.mapping))
        registry.gauge(
            "tier_segments", help="segment files currently allocated"
        ).set(len(self.segments.segments))
        registry.gauge(
            "tier_used_bytes", help="flash bytes consumed (live + dead)"
        ).set(self.used_bytes)
        registry.gauge(
            "tier_live_bytes", help="flash bytes referenced by live entries"
        ).set(self.live_bytes)
        registry.gauge(
            "tier_capacity_bytes", help="configured tier capacity"
        ).set(self.config.capacity_bytes)
        registry.gauge(
            "tier_admission_watermark",
            help="current cost-per-byte admission watermark",
        ).set(self.admission.watermark)
