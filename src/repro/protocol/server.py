"""Protocol server: dispatches parsed commands onto a :class:`KVStore`.

:class:`StoreServer` is transport-agnostic — it consumes request bytes and
produces response bytes — so the same dispatcher backs the in-process
loopback connection used by tests/examples and the asyncio TCP server in
:mod:`repro.aio.server`.  Each store is served by exactly one event-loop
thread, so dispatch calls the :class:`KVStore` directly, with no lock.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.obs import tracing
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import OverloadShedEvent
from repro.kvstore.errors import (
    CasMismatchError,
    NotStoredError,
    ObjectTooLargeError,
    OutOfMemoryError,
)
from repro.kvstore.item import NEVER_EXPIRES
from repro.kvstore.store import KVStore
from repro.protocol.commands import (
    BUSY,
    DELETED,
    DeleteCommand,
    DigestCommand,
    DigestResponse,
    EXISTS,
    FlushCommand,
    KeyListCommand,
    KeyListResponse,
    GetCommand,
    GetResponse,
    IncrCommand,
    MultiGetCommand,
    MultiSetCommand,
    MultiSetResponse,
    NOT_FOUND,
    NOT_STORED,
    NumberResponse,
    OK,
    ProtocolError,
    QuitCommand,
    RESET,
    STORED,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TOUCHED,
    TouchCommand,
    ValueResponse,
    client_error,
    server_error,
)
from repro.protocol.text import RequestParser, encode_response_into

#: most recent trace events included in a ``stats trace`` response
TRACE_TAIL = 64


def command_label(command) -> str:
    """The metrics label for a parsed command (``cmd="get"`` etc.)."""
    if isinstance(command, GetCommand):
        return "gets" if command.with_cas else "get"
    if isinstance(command, MultiGetCommand):
        return "mget"
    if isinstance(command, MultiSetCommand):
        return "mset"
    if isinstance(command, StoreCommand):
        return command.verb
    if isinstance(command, IncrCommand):
        return "decr" if command.negative else "incr"
    if isinstance(command, DeleteCommand):
        return "delete"
    if isinstance(command, TouchCommand):
        return "touch"
    if isinstance(command, FlushCommand):
        return "flush_all"
    if isinstance(command, StatsCommand):
        return "stats"
    if isinstance(command, DigestCommand):
        return "digest"
    if isinstance(command, KeyListCommand):
        return "keys"
    if isinstance(command, QuitCommand):
        return "quit"
    return type(command).__name__.lower()


def _stat_str(value) -> str:
    """Render one stats value the way memcached does (floats trimmed)."""
    if isinstance(value, float) and value != int(value):
        return f"{value:.6f}".rstrip("0").rstrip(".")
    if isinstance(value, float):
        return str(int(value))
    return str(value)


class StoreServer:
    """Byte-in / byte-out protocol engine over one store.

    Args:
        store: the backing :class:`KVStore`.
        registry: metrics registry for per-command latency histograms and
            command counters; defaults to the store's own registry so one
            ``stats metrics`` read covers both layers.  When the registry
            is a :class:`~repro.obs.registry.NullRegistry`, dispatch skips
            all timing work.
        trace: event trace rendered by ``stats trace``; defaults to the
            store's trace (may be ``None``).
        tracer: optional :class:`~repro.obs.tracing.Tracer` for per-request
            distributed spans.  When set, a GET batch that arrived with a
            sampled trace context records a ``server.dispatch`` span (and
            activates it, so store/tier spans nest under it); untraced
            commands pay one attribute check.  ``None`` (default) keeps
            dispatch byte-for-byte identical to the pre-tracing path.
    """

    def __init__(
        self,
        store: KVStore,
        registry: Optional[MetricsRegistry] = None,
        trace=None,
        tracer=None,
    ) -> None:
        self.store = store
        self.metrics = registry if registry is not None else store.metrics
        self.trace = trace if trace is not None else store.trace
        self.tracer = tracer
        self._timing = self.metrics.enabled
        self._cmd_hists: dict = {}
        self._shed_counters: dict = {}
        self._perf_counter = time.perf_counter

    def _observe_command(self, label: str, elapsed_us: float) -> None:
        # per-command counts ride on the histogram's _count series, so the
        # hot path is one buffered append (the instrument's list identity
        # is stable; any metrics read flushes it)
        entry = self._cmd_hists.get(label)
        if entry is None:
            hist = self.metrics.histogram(
                "cmd_latency_us",
                help="per-command dispatch latency in microseconds",
                cmd=label,
            )
            entry = self._cmd_hists[label] = (
                hist._pending, hist._pending.append, hist.flush, hist.FLUSH_AT
            )
        pending, append, flush, flush_at = entry
        append(elapsed_us)
        if len(pending) >= flush_at:
            flush()

    def handle_bytes(
        self,
        parser: RequestParser,
        data: bytes,
        budget: Optional[float] = None,
        shed_reason: str = "deadline",
    ) -> Tuple[bytes, bool]:
        """Feed raw request bytes; returns (response bytes, keep_open).

        Every response of a pipelined batch serializes into one shared
        buffer, converted to ``bytes`` once per flush.

        ``budget`` is the overload-protection hook: the batch may spend
        that many wall-clock seconds dispatching, after which every
        remaining command is answered ``SERVER_ERROR busy`` instead of
        executed (``budget=0`` sheds the whole batch).  Framing is
        preserved — exactly one reply per reply-expecting command, and
        ``noreply`` commands are shed silently — so pipelined clients
        stay in sync.  ``quit`` is honoured even while shedding.
        """
        if budget is None:
            return self._handle_unbudgeted(parser, data)
        out = bytearray()
        perf_counter = self._perf_counter
        deadline = perf_counter() + budget
        shed = 0
        keep_open = True
        try:
            parser.feed(data)
            for command in parser:
                if isinstance(command, QuitCommand):
                    keep_open = False
                    break
                if shed or perf_counter() >= deadline:
                    shed += 1
                    if not getattr(command, "noreply", False):
                        encode_response_into(out, BUSY)
                    continue
                response, reply = self.dispatch(command)
                if reply:
                    encode_response_into(out, response)
        except ProtocolError as exc:
            encode_response_into(out, client_error(str(exc)))
            keep_open = False
        if shed:
            self._record_shed(shed, "deadline" if budget > 0 else shed_reason)
        return bytes(out), keep_open

    def _handle_unbudgeted(
        self, parser: RequestParser, data: bytes
    ) -> Tuple[bytes, bool]:
        out = bytearray()
        try:
            parser.feed(data)
            for command in parser:
                response, reply = self.dispatch(command)
                if isinstance(command, QuitCommand):
                    return bytes(out), False
                if reply:
                    encode_response_into(out, response)
        except ProtocolError as exc:
            encode_response_into(out, client_error(str(exc)))
            return bytes(out), False
        return bytes(out), True

    def _record_shed(self, shed: int, reason: str) -> None:
        counter = self._shed_counters.get(reason)
        if counter is None:
            counter = self._shed_counters[reason] = self.metrics.counter(
                "server_shed_commands_total",
                help="commands answered SERVER_ERROR busy under overload",
                reason=reason,
            )
        counter.inc(shed)
        if self.trace is not None:
            self.trace.record(
                OverloadShedEvent(reason=reason, shed_commands=shed)
            )
        if self.tracer is not None:
            # A shed batch never reaches dispatch, so rejected requests
            # would otherwise be invisible to tracing: record a local
            # zero-duration marker span (its own trace — the shed path by
            # design does not read per-command tokens).
            self.tracer.record_complete(
                "server.shed",
                start_us=time.time_ns() // 1000,
                duration_us=0.0,
                forced="shed",
                reason=reason,
                shed_commands=shed,
            )

    def dispatch(self, command) -> Tuple[object, bool]:
        """Execute one command; returns (response, should_reply).

        When instrumented, each dispatch records into
        ``cmd_latency_us{cmd=...}`` (whose ``_count`` is the command count).
        With a tracer attached, a command carrying a sampled trace token
        additionally records a ``server.dispatch`` span and runs with that
        span active, so store/tier spans attach beneath it.
        """
        if self.tracer is not None:
            raw = getattr(command, "trace_token", None)
            if raw is not None:
                context = tracing.decode_token(raw)
                if context is not None and context.sampled:
                    return self._dispatch_traced(command, context)
        return self._timed_dispatch(command)

    def _dispatch_traced(self, command, context) -> Tuple[object, bool]:
        with self.tracer.span(
            "server.dispatch",
            trace_id=context.trace_id,
            parent_id=context.span_id,
            cmd=command_label(command),
            nkeys=len(getattr(command, "keys", ()) or ()),
        ):
            return self._timed_dispatch(command)

    def _timed_dispatch(self, command) -> Tuple[object, bool]:
        if not self._timing:
            return self._dispatch(command)
        perf_counter = self._perf_counter
        started = perf_counter()
        try:
            return self._dispatch(command)
        finally:
            self._observe_command(
                command_label(command), (perf_counter() - started) * 1e6
            )

    def _dispatch(self, command) -> Tuple[object, bool]:
        store = self.store
        if isinstance(command, GetCommand):
            values = []
            for key in command.keys:
                item = store.get(key)
                if item is not None:
                    values.append(
                        ValueResponse(
                            key=key,
                            flags=item.flags,
                            value=item.value,
                            cas_unique=item.cas_unique if command.with_cas else None,
                        )
                    )
            return GetResponse(values=tuple(values)), True
        if isinstance(command, MultiGetCommand):
            # Vectored read: the whole batch goes through the store in one call.
            keys = command.keys
            items = store.get_many(keys)
            values = []
            for key, item in zip(keys, items):
                if item is not None:
                    values.append(
                        ValueResponse(key=key, flags=item.flags, value=item.value)
                    )
            return GetResponse(values=tuple(values)), True
        if isinstance(command, MultiSetCommand):
            return self._dispatch_mset(command)
        if isinstance(command, IncrCommand):
            delta = -command.delta if command.negative else command.delta
            try:
                result = store.incr(command.key, delta)
            except NotStoredError:
                return NOT_FOUND, not command.noreply
            except ValueError as exc:
                return client_error(str(exc)), not command.noreply
            return NumberResponse(value=result), not command.noreply
        if isinstance(command, StoreCommand):
            exptime = command.exptime
            if exptime and exptime != NEVER_EXPIRES:
                # memcached treats small exptimes as relative seconds
                exptime = store.clock.now + exptime
            try:
                if command.verb == "set":
                    if command.version:
                        store.set(command.key, command.value,
                                  cost=command.cost, exptime=exptime,
                                  flags=command.flags,
                                  version=command.version)
                    else:
                        store.set(command.key, command.value,
                                  cost=command.cost, exptime=exptime,
                                  flags=command.flags)
                elif command.verb == "add":
                    store.add(command.key, command.value, cost=command.cost,
                              exptime=exptime, flags=command.flags)
                elif command.verb == "replace":
                    store.replace(command.key, command.value, cost=command.cost,
                                  exptime=exptime, flags=command.flags)
                elif command.verb == "append":
                    store.append(command.key, command.value)
                elif command.verb == "prepend":
                    store.prepend(command.key, command.value)
                elif command.verb == "cas":
                    store.cas(command.key, command.value,
                              cas_unique=command.cas_unique or 0,
                              cost=command.cost, exptime=exptime,
                              flags=command.flags)
                else:
                    return client_error(f"bad verb {command.verb}"), True
            except CasMismatchError:
                return EXISTS, not command.noreply
            except NotStoredError:
                verb_not_found = command.verb in ("cas",)
                return (NOT_FOUND if verb_not_found else NOT_STORED), not command.noreply
            except ObjectTooLargeError:
                return server_error("object too large for cache"), not command.noreply
            except OutOfMemoryError:
                return server_error("out of memory storing object"), not command.noreply
            return STORED, not command.noreply
        if isinstance(command, DeleteCommand):
            found = store.delete(command.key)
            return (DELETED if found else NOT_FOUND), not command.noreply
        if isinstance(command, TouchCommand):
            exptime = command.exptime
            if exptime and exptime != NEVER_EXPIRES:
                exptime = store.clock.now + exptime
            found = store.touch_ttl(command.key, exptime)
            return (TOUCHED if found else NOT_FOUND), not command.noreply
        if isinstance(command, FlushCommand):
            store.flush_all()
            return OK, not command.noreply
        if isinstance(command, StatsCommand):
            if command.subcommand == "reset":
                return self._stats_reset(), True
            return self._stats_response(command.subcommand), True
        if isinstance(command, DigestCommand):
            slots = tuple(store.digest(command.nslots))
            return DigestResponse(nslots=command.nslots, slots=slots), True
        if isinstance(command, KeyListCommand):
            entries = tuple(store.key_entries(command.slot, command.nslots))
            return KeyListResponse(entries=entries), True
        if isinstance(command, QuitCommand):
            return OK, False
        return client_error(f"unhandled command {type(command).__name__}"), True

    def _dispatch_mset(self, command: MultiSetCommand) -> Tuple[object, bool]:
        """Vectored write: one ``set_many`` call, per-item status words.

        Status vocabulary (single tokens, so the one-line ``MSET``
        response stays splittable): ``STORED``, ``NOT_STORED`` (rejected
        by last-writer-wins version resolution — the durable copy is
        *newer*, so quorum accounting still counts it as an ack),
        ``TOO_LARGE`` (object larger than a slab), ``OOM`` (allocation
        failed under memory pressure).
        """
        store = self.store
        now = store.clock.now
        entries = []
        for item in command.items:
            exptime = item.exptime
            if exptime and exptime != NEVER_EXPIRES:
                exptime = now + exptime
            entries.append(
                (item.key, item.value, item.cost, exptime, item.flags,
                 item.version)
            )
        statuses = []
        for result in store.set_many(entries):
            if isinstance(result, ObjectTooLargeError):
                statuses.append(b"TOO_LARGE")
            elif isinstance(result, OutOfMemoryError):
                statuses.append(b"OOM")
            elif isinstance(result, NotStoredError):
                statuses.append(b"NOT_STORED")
            elif isinstance(result, BaseException):  # defensive: unknown error
                statuses.append(b"ERROR")
            else:
                statuses.append(b"STORED")
        return MultiSetResponse(statuses=tuple(statuses)), not command.noreply

    def _stats_reset(self):
        """``stats reset``: zero resettable counters/histograms, keep gauges.

        Mirrors memcached: rate counters restart, level facts (curr_items,
        bytes, connection gauges) survive.  The event trace is cleared too.
        Answers ``RESET``.
        """
        self.store.metrics.reset()
        if self.metrics is not self.store.metrics:
            self.metrics.reset()
        if self.trace is not None:
            self.trace.clear()
        return RESET

    def _stats_response(self, subcommand: str) -> StatsResponse:
        """Render ``stats`` and its memcached-style subcommands."""
        store = self.store
        stats = []
        if subcommand == "slabs":
            for cls in store.allocator.classes:
                if cls.num_slabs == 0 and cls.live_items == 0:
                    continue
                cid = cls.class_id
                stats.append((f"{cid}:chunk_size", str(cls.chunk_size)))
                stats.append((f"{cid}:total_slabs", str(cls.num_slabs)))
                stats.append((f"{cid}:total_chunks", str(cls.total_chunks)))
                stats.append((f"{cid}:used_chunks", str(cls.live_items)))
                stats.append((f"{cid}:evicted", str(cls.evictions)))
            stats.append(("active_slabs", str(store.allocator.allocated_slabs)))
            stats.append(
                ("total_malloced", str(store.allocator.memory_used))
            )
        elif subcommand == "items":
            for cls in store.allocator.classes:
                if cls.live_items == 0 and cls.evictions == 0:
                    continue
                cid = cls.class_id
                stats.append((f"items:{cid}:number", str(cls.live_items)))
                stats.append((f"items:{cid}:evicted", str(cls.evictions)))
                stats.append(
                    (
                        f"items:{cid}:avg_cost_per_byte",
                        f"{cls.average_cost_per_byte():.6f}",
                    )
                )
        elif subcommand == "metrics":
            store.publish_metrics()  # refresh pull-style gauges first
            snapshot = dict(self.metrics.snapshot())
            if self.metrics is not store.metrics:
                snapshot.update(store.metrics.snapshot())
            for name in sorted(snapshot):
                value = snapshot[name]
                rendered = (
                    f"{value:.6f}".rstrip("0").rstrip(".")
                    if isinstance(value, float) and value != int(value)
                    else str(int(value))
                )
                stats.append((name, rendered))
        elif subcommand == "trace":
            trace = self.trace
            if trace is None:
                stats.append(("trace", "disabled"))
            else:
                for kind in sorted(trace.counts):
                    stats.append((f"trace:count:{kind}", str(trace.counts[kind])))
                stats.append(("trace:buffered", str(len(trace))))
                for event in trace.events(last=TRACE_TAIL):
                    stats.append((f"trace:{event.seq}", event.describe()))
        elif subcommand == "settings":
            allocator = store.allocator
            stats.append(("maxbytes", str(allocator.memory_limit)))
            stats.append(("slab_size", str(allocator.slab_size)))
            stats.append(("growth_factor", str(allocator.growth_factor)))
            stats.append(("evictions", "on"))
            stats.append(("rebalancer", store.rebalancer.name))
            tier = store.tier
            stats.append(
                ("tier", "on" if tier is not None else "off")
            )
            if tier is not None:
                stats.append(
                    ("tier_maxbytes", str(tier.config.capacity_bytes))
                )
                stats.append(
                    ("tier_segment_bytes", str(tier.config.segment_bytes))
                )
        elif subcommand == "tier":
            tier = store.tier
            if tier is None:
                stats.append(("tier", "disabled"))
            else:
                snapshot = tier.snapshot()
                for name in sorted(snapshot):
                    value = snapshot[name]
                    if isinstance(value, dict):
                        for sub in sorted(value):
                            stats.append((f"{name}:{sub}", _stat_str(value[sub])))
                    else:
                        stats.append((name, _stat_str(value)))
        else:
            snapshot = store.stats.snapshot()
            stats = [
                (name, str(value)) for name, value in sorted(snapshot.items())
            ]
            stats.append(("curr_items", str(len(store))))
            stats.append(("bytes", str(store.live_bytes)))
        return StatsResponse(stats=stats)


class StoreConnection:
    """Per-connection incremental dispatch state, shared by every transport.

    One instance per client connection: it owns the connection's
    :class:`RequestParser` and pushes raw reads through the engine.  Because
    the parser is incremental and :meth:`StoreServer.handle_bytes` drains
    *every* complete command in the buffer, feeding one TCP segment that
    carries many commands produces one coalesced response blob — request
    pipelining falls out for free, identically for the in-process loopback
    and the asyncio server in :mod:`repro.aio`.
    """

    __slots__ = ("engine", "parser", "open")

    def __init__(self, engine: StoreServer) -> None:
        self.engine = engine
        self.parser = RequestParser()
        self.open = True

    def feed(
        self,
        data: bytes,
        budget: Optional[float] = None,
        shed_reason: str = "deadline",
    ) -> bytes:
        """Feed one raw read; returns coalesced response bytes (may be empty).

        After a ``quit`` or a protocol error :attr:`open` flips to False and
        the transport should close after flushing the returned bytes.
        ``budget``/``shed_reason`` pass through to
        :meth:`StoreServer.handle_bytes` for overload shedding.
        """
        if not self.open:
            raise ConnectionError("connection closed")
        response, keep_open = self.engine.handle_bytes(
            self.parser, data, budget=budget, shed_reason=shed_reason
        )
        if not keep_open:
            self.open = False
        return response


class LoopbackConnection(StoreConnection):
    """An in-process "connection": request bytes in, response bytes out.

    Tests and examples use this instead of sockets; framing and parsing run
    exactly as over TCP.
    """

    __slots__ = ()

    def send(self, data: bytes) -> bytes:
        return self.feed(data)
