"""Pooled, pipelining asyncio client for the extended memcached protocol.

The client keeps a bounded pool of TCP connections.  Each request checks a
connection out, writes *all* its commands in one ``send`` (pipelining),
reads the matching responses back, and returns the connection to the pool.
``get_many``/``set_many`` therefore cost one round trip regardless of key
count — the client-side half of the throughput story memcached deployments
rely on.

Each pooled connection is a low-level :class:`asyncio.BufferedProtocol`:
received bytes land in a preallocated buffer and feed the incremental
:class:`~repro.protocol.text.ResponseParser` straight from the event
loop's reader callback — no ``StreamReader``, no per-response read
coroutine.  Completion is a *future per pipeline slot*: ``execute()``
registers one future for its whole batch, writes the batch in one
transport send, and the protocol resolves the future when the last
response of the batch parses.  Deadlines are a single lazily re-armed
timer per connection (progress on the wire pushes it out) instead of an
``asyncio.wait_for`` timer per response.

Failure handling mirrors production clients: per-batch timeouts, and
transparent retry with exponential backoff + jitter on connect failures,
timeouts, and dropped connections.  A connection that failed is
discarded, never pooled again.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.aio.backoff import RetryPolicy
from repro.obs import tracing
from repro.obs.trace import key_fingerprint
from repro.protocol.commands import (
    DeleteCommand,
    DigestCommand,
    DigestResponse,
    FlushCommand,
    GetCommand,
    GetResponse,
    IncrCommand,
    KeyListCommand,
    KeyListResponse,
    MultiGetCommand,
    MultiSetCommand,
    MultiSetResponse,
    NumberResponse,
    ProtocolError,
    SimpleResponse,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TouchCommand,
    unexpected_response,
)
from repro.resilience.breaker import BreakerOpenError, CircuitBreaker
from repro.protocol.sockopt import tune_socket
from repro.protocol.text import ResponseParser, encode_command_into

READ_SIZE = 65536

#: adaptive write coalescing: batches below this stay corked — the kernel
#: (and asyncio's transport buffer) flush them when we await the response,
#: and ``drain()`` only ever blocks above the transport's high-water mark
#: anyway, so the extra coroutine hop buys nothing for small frames
CORK_BYTES = 64 * 1024

#: Exceptions that mark a connection dead and the attempt retryable.
#: BreakerOpenError subclasses ConnectionError but is raised outside the
#: retry try-block, so it propagates without retry; ServerBusyError is a
#: ProtocolError and deliberately not retryable (see its docstring).
RETRYABLE = (ConnectionError, OSError, asyncio.TimeoutError)


def _batch_summary(commands: Sequence[object]) -> Tuple[str, Optional[int]]:
    """(op label, first-key fingerprint) for span/slow-log attribution.

    Fingerprints — never raw keys — are what leave the process, matching
    the event-trace privacy stance.
    """
    first = commands[0]
    if isinstance(first, (GetCommand, MultiGetCommand)):
        op = "mget" if isinstance(first, MultiGetCommand) else "get"
        key = first.keys[0] if first.keys else None
    elif isinstance(first, MultiSetCommand):
        op = "mset"
        key = first.items[0].key if first.items else None
    else:
        op = getattr(first, "verb", None) or type(first).__name__.lower()
        key = getattr(first, "key", None)
    if len(commands) > 1:
        op = f"{op}[{len(commands)}]"
    return op, key_fingerprint(key) if key is not None else None


def _batch_shed(result: "BatchResult") -> bool:
    """Did any response in the batch come back ``SERVER_ERROR busy``?"""
    for response in result:
        if isinstance(response, SimpleResponse) and response.line.startswith(
            b"SERVER_ERROR busy"
        ):
            return True
    return False


class BatchResult:
    """Responses of one pipelined batch, in command order."""

    __slots__ = ("responses",)

    def __init__(self, responses: Sequence[object]) -> None:
        self.responses = list(responses)

    def __len__(self) -> int:
        return len(self.responses)

    def __getitem__(self, index: int):
        return self.responses[index]

    def __iter__(self):
        return iter(self.responses)


class _ClientProtocol(asyncio.BufferedProtocol):
    """The wire side of one pooled connection.

    Receive path: the kernel writes into a preallocated buffer
    (``get_buffer``), ``buffer_updated`` feeds the incremental parser and
    walks completed responses into the head pipeline slot — all inside
    the loop's reader callback, with no task wakeup per response.

    Completion: ``expect(n)`` registers ``[remaining, responses, future]``
    in a FIFO deque (one slot per pipelined batch) and returns the
    future; the slot's future resolves with the response list when its
    ``n``-th response parses.  Responses arriving with no slot registered
    belong to a batch that already timed out — the owner is discarding
    this connection, so they are dropped.

    Deadline: one lazily re-armed ``call_later`` per connection.  Every
    chunk of received bytes (and every new batch) refreshes
    ``_last_activity``; when the timer fires it either re-arms for the
    remainder or fails every pending slot with ``asyncio.TimeoutError``
    (exactly what ``wait_for`` raised, so retry accounting is unchanged)
    and aborts the transport.  Progress-based rather than per-response,
    which is both cheaper and *stricter* for stalled peers.
    """

    __slots__ = (
        "parser",
        "transport",
        "closed",
        "_loop",
        "_recv",
        "_recv_view",
        "_pending",
        "_timeout",
        "_timer",
        "_last_activity",
        "_write_paused",
        "_drain_waiters",
        "_closed_waiter",
    )

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.parser = ResponseParser()
        self.transport: Optional[asyncio.Transport] = None
        self.closed = False
        self._loop = loop
        self._recv = bytearray(READ_SIZE)
        self._recv_view = memoryview(self._recv)
        # FIFO of [remaining, responses, future] — one slot per batch
        self._pending: Deque[list] = deque()
        self._timeout: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._last_activity = 0.0
        self._write_paused = False
        self._drain_waiters: Deque[asyncio.Future] = deque()
        self._closed_waiter = loop.create_future()

    # -- lifecycle -------------------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        tune_socket(transport.get_extra_info("socket"))

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        error = exc if exc is not None else ConnectionError(
            "server closed the connection"
        )
        self._fail_pending(error)
        if not self._closed_waiter.done():
            self._closed_waiter.set_result(None)

    def eof_received(self) -> bool:
        return False  # server half-close = dead connection

    async def wait_closed(self) -> None:
        await self._closed_waiter

    # -- zero-copy receive path ------------------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        parser = self.parser
        parser.feed(self._recv_view[:nbytes])
        if self._timer is not None:
            self._last_activity = self._loop.time()
        pending = self._pending
        while True:
            try:
                response = parser.try_parse()
            except ProtocolError as exc:
                self._fail_pending(exc)
                if self.transport is not None:
                    self.transport.abort()
                return
            if response is None:
                return
            if not pending:
                # late reply for a batch that already timed out; the
                # owner discards this connection — drop it
                continue
            slot = pending[0]
            slot[1].append(response)
            slot[0] -= 1
            if slot[0] == 0:
                pending.popleft()
                future = slot[2]
                if not future.done():
                    future.set_result(slot[1])

    # -- batch registration / deadline ----------------------------------------

    def expect(self, count: int, timeout: Optional[float]) -> asyncio.Future:
        """One future for a batch of ``count`` pipelined responses."""
        if self.closed:
            raise ConnectionError("connection is closed")
        future = self._loop.create_future()
        self._pending.append([count, [], future])
        if timeout is not None:
            self._timeout = timeout
            self._last_activity = self._loop.time()
            if self._timer is None:
                self._timer = self._loop.call_later(timeout, self._check_deadline)
        return future

    def _check_deadline(self) -> None:
        if not self._pending:
            # idle between batches: disarm; the next expect() re-arms
            self._timer = None
            return
        idle = self._loop.time() - self._last_activity
        if idle < self._timeout:
            self._timer = self._loop.call_later(
                self._timeout - idle, self._check_deadline
            )
            return
        self._timer = None
        # same exception type wait_for raised, so the retry loop's
        # RETRYABLE/timeouts accounting is unchanged (asyncio.TimeoutError
        # is not builtin TimeoutError on py3.9/3.10)
        self._fail_pending(asyncio.TimeoutError())
        if self.transport is not None:
            self.transport.abort()

    def _fail_pending(self, error: BaseException) -> None:
        while self._pending:
            slot = self._pending.popleft()
            future = slot[2]
            if not future.done():
                future.set_exception(error)
        while self._drain_waiters:
            waiter = self._drain_waiters.popleft()
            if not waiter.done():
                waiter.set_exception(ConnectionError("connection is closed"))

    # -- write backpressure ----------------------------------------------------

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        while self._drain_waiters:
            waiter = self._drain_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    async def drain(self) -> None:
        """Wait out write backpressure — only huge batches ever block."""
        if self.closed:
            raise ConnectionError("connection is closed")
        if not self._write_paused:
            return
        waiter = self._loop.create_future()
        self._drain_waiters.append(waiter)
        await waiter


class _Connection:
    """One live TCP connection: transport + protocol + encode scratch."""

    __slots__ = ("transport", "protocol", "scratch")

    def __init__(self, transport: asyncio.Transport, protocol: _ClientProtocol) -> None:
        self.transport = transport
        self.protocol = protocol
        # reusable encode buffer: the whole pipelined batch serializes into
        # it (scatter-gather style) and goes out in ONE transport write
        self.scratch = bytearray()

    async def execute(self, commands: Sequence[object], timeout: Optional[float]) -> List[object]:
        scratch = self.scratch
        del scratch[:]
        for command in commands:
            encode_command_into(scratch, command)
        # register before writing so a same-callback response can't race
        # the slot; the transport corks/coalesces the actual send
        future = self.protocol.expect(len(commands), timeout)
        self.transport.write(bytes(scratch))
        if len(scratch) >= CORK_BYTES:
            # only a payload that can cross the transport's high-water
            # mark can pause the transport; small frames never block
            await self.protocol.drain()
        return await future

    async def aclose(self) -> None:
        try:
            self.transport.close()
        except (ConnectionError, OSError):
            pass
        await self.protocol.wait_closed()


class AsyncStoreClient:
    """Async cost-aware client with a bounded connection pool.

    Args:
        host/port: server address.
        pool_size: max concurrent connections; extra requests queue.
        timeout: per-response timeout in seconds (also bounds connect).
        retry: backoff schedule for retryable failures.
        rng: randomness source for jitter (inject for determinism).
        breaker: optional per-host circuit breaker.  When it is open,
            requests fail fast with
            :class:`~repro.resilience.BreakerOpenError` — no dial, no
            backoff sleeps.  The breaker observes transport results only
            (connect failures, timeouts, drops); ``SERVER_ERROR busy``
            shedding replies do not count against it.
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  Sampled
            requests record client-side spans and propagate trace context
            to the server on GET lines; slow/shed/breaker-rejected
            requests are force-sampled even when the head decision said
            no.  ``None`` (default) keeps the request path untouched.

    :meth:`get_many`/:meth:`set_many` send one MGET/MSET frame per call;
    other wire shapes (per-key frames, the multi-key ``get`` line) go
    through :meth:`execute` directly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        timeout: Optional[float] = 5.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        breaker: Optional[CircuitBreaker] = None,
        tracer: Optional["tracing.Tracer"] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        self.tracer = tracer
        self._rng = rng if rng is not None else random.Random()
        self._idle: Deque[_Connection] = deque()
        self._slots: Optional[asyncio.Semaphore] = None
        self._closing: Optional[asyncio.Event] = None
        self._closed = False
        # -- observability -----------------------------------------------------
        self.connects = 0
        self.connect_retries = 0
        self.request_retries = 0
        self.timeouts = 0
        self.requests = 0

    def _semaphore(self) -> asyncio.Semaphore:
        # created lazily so the client can be built outside a running loop
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.pool_size)
        return self._slots

    def _closing_event(self) -> asyncio.Event:
        # lazy for the same reason as the semaphore
        if self._closing is None:
            self._closing = asyncio.Event()
        return self._closing

    # -- pool management -------------------------------------------------------

    async def _dial(self) -> _Connection:
        # single attempt; the execute() loop owns retry + backoff
        loop = asyncio.get_event_loop()
        transport, protocol = await asyncio.wait_for(
            loop.create_connection(
                lambda: _ClientProtocol(loop), self.host, self.port
            ),
            self.timeout,
        )
        self.connects += 1
        return _Connection(transport, protocol)

    async def execute(self, commands: Sequence[object]) -> BatchResult:
        """Run a pipelined batch; one response per command, in order.

        Commands must expect a reply (no ``noreply``, no ``quit``).  On a
        retryable failure the dead connection is dropped and the *whole
        batch* is retried on a fresh one — idempotent cache semantics make
        that safe the same way memcached client retries are.

        With a tracer attached, sampled batches record ``client.request``
        / ``pool.acquire`` / ``client.send_await`` spans and propagate the
        context to the server on GET lines (see :meth:`_execute_sampled`).

        Sampling is decided once per request tree: an active upstream span
        (a routed pool op) means "sampled, attach here"; the
        :data:`~repro.obs.tracing.NOT_SAMPLED` sentinel means an upstream
        sampler already declined (so this layer must not re-roll); with
        neither, this client is the root sampler.  Unsampled requests pay
        one sample-counter bump plus two ``perf_counter`` reads — all
        attribution work (fingerprints, wall-clock stamps) is deferred to
        the rare force-sample, because the paper's tail requests are
        exactly the ones a 1-in-N head sample would miss.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if not commands:
            return BatchResult(())
        self.requests += 1
        tracer = self.tracer
        if tracer is None:
            return await self._execute(commands, None)
        upstream = tracing.CURRENT.get()
        if isinstance(upstream, tracing.Span):
            return await self._execute_sampled(commands, upstream)
        if upstream is not tracing.NOT_SAMPLED and tracer.sample():
            return await self._execute_sampled(commands, None)
        # unsampled fast path, inline so it costs no extra coroutine hop
        t0 = time.perf_counter()
        try:
            result = await self._execute(commands, None)
        except BreakerOpenError:
            self._force_sample(commands, (time.perf_counter() - t0) * 1e6,
                               "breaker_open")
            raise
        elapsed_us = (time.perf_counter() - t0) * 1e6
        if _batch_shed(result):
            self._force_sample(commands, elapsed_us, "shed")
        elif elapsed_us >= tracer.slow_threshold_us:
            self._force_sample(commands, elapsed_us, "slow")
        return result

    def _force_sample(self, commands, elapsed_us: float, reason: str) -> None:
        """Retroactively record an unsampled request that turned out to
        matter (slow / shed / breaker-rejected).  Off the fast path, so
        this is where the batch summary and wall-clock stamp get paid."""
        tracer = self.tracer
        op, key_fp = _batch_summary(commands)
        start_us = time.time_ns() // 1000 - int(elapsed_us)
        span = tracer.record_complete(
            "client.request", start_us, elapsed_us,
            forced=reason, op=op, key_fp=key_fp,
        )
        tracer.note_slow(op, elapsed_us, key_fp, span.trace_id, reason=reason)

    async def _execute_sampled(
        self, commands: Sequence[object], parent: Optional["tracing.Span"]
    ) -> BatchResult:
        """The sampled request path: record the root and hop spans."""
        tracer = self.tracer
        op, key_fp = _batch_summary(commands)
        # root sampler here => "client.request"; under a pool's root span
        # this hop is the per-node batch leg
        root = tracer.start_span(
            "client.request" if parent is None else "client.batch",
            parent=parent, op=op, ncmds=len(commands), key_fp=key_fp,
        )
        token = tracing.activate(root)
        try:
            result = await self._execute(commands, root)
            if _batch_shed(result):
                root.attrs["shed"] = True
            return result
        except BreakerOpenError:
            root.attrs["error"] = "breaker_open"
            raise
        except RETRYABLE as exc:
            root.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracing.deactivate(token)
            tracer.end(root)

    async def _execute(
        self, commands: Sequence[object], root: Optional["tracing.Span"]
    ) -> BatchResult:
        """The retry loop; ``root`` (a live span) turns on span recording."""
        breaker = self.breaker
        attempt = 0
        slots = self._semaphore()
        while True:
            if breaker is not None and not breaker.allow():
                raise BreakerOpenError(
                    f"circuit open for {self.host}:{self.port}"
                )
            if root is None:
                await slots.acquire()
            else:
                acquire_span = self.tracer.start_span("pool.acquire", parent=root)
                await slots.acquire()
                self.tracer.end(acquire_span)
            connection: Optional[_Connection] = None
            try:
                connection = self._idle.popleft() if self._idle else await self._dial()
                if root is None:
                    responses = await connection.execute(commands, self.timeout)
                else:
                    # the send/await span is the server's parent: its id
                    # rides the wire, so the server hop nests right here
                    send_span = self.tracer.start_span(
                        "client.send_await", parent=root, attempt=attempt,
                    )
                    try:
                        responses = await connection.execute(
                            tracing.attach_context(commands, send_span.context()),
                            self.timeout,
                        )
                    finally:
                        self.tracer.end(send_span)
                self._idle.append(connection)
                if breaker is not None:
                    breaker.record_success()
                return BatchResult(responses)
            except RETRYABLE as exc:
                if breaker is not None:
                    breaker.record_failure()
                if isinstance(exc, asyncio.TimeoutError):
                    self.timeouts += 1
                if connection is not None:
                    await connection.aclose()
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise
                if connection is None:
                    self.connect_retries += 1
                else:
                    self.request_retries += 1
                delay = self.retry.delay_for(attempt, self._rng)
            finally:
                slots.release()
            await self._backoff_sleep(delay)

    async def _backoff_sleep(self, delay: float) -> None:
        """Sleep between retry attempts, interruptible by :meth:`aclose`.

        A plain ``asyncio.sleep`` here would let a closed client sleep
        through its backoff and redial; instead the sleep races the
        closing event and the loop re-checks ``_closed`` afterwards, so
        ``aclose()`` cuts in-flight retry loops short.
        """
        if delay > 0:
            closing = self._closing_event()
            try:
                await asyncio.wait_for(closing.wait(), delay)
            except asyncio.TimeoutError:
                pass
        if self._closed:
            raise ConnectionError("client closed during retry backoff")

    async def aclose(self) -> None:
        self._closed = True
        if self._closing is not None:
            self._closing.set()  # wake any retry loop out of its backoff
        while self._idle:
            await self._idle.popleft().aclose()

    async def __aenter__(self) -> "AsyncStoreClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- single-key commands ---------------------------------------------------

    async def get(self, key: bytes) -> Optional[bytes]:
        result = await self.execute([GetCommand(keys=(key,))])
        response = result[0]
        if not isinstance(response, GetResponse):
            raise unexpected_response(response, "GET")
        return response.values[0].value if response.values else None

    async def set(
        self,
        key: bytes,
        value: bytes,
        cost: int = 0,
        exptime: float = 0,
        flags: int = 0,
        version: int = 0,
    ) -> bool:
        result = await self.execute(
            [
                StoreCommand(
                    verb="set", key=key, flags=flags, exptime=exptime,
                    value=value, cost=cost, version=version,
                )
            ]
        )
        return self._check_stored(result[0])

    async def delete(self, key: bytes) -> bool:
        result = await self.execute([DeleteCommand(key=key)])
        response = result[0]
        return isinstance(response, SimpleResponse) and response.line == b"DELETED"

    async def touch(self, key: bytes, exptime: float) -> bool:
        result = await self.execute([TouchCommand(key=key, exptime=exptime)])
        response = result[0]
        return isinstance(response, SimpleResponse) and response.line == b"TOUCHED"

    async def incr(self, key: bytes, delta: int = 1) -> Optional[int]:
        result = await self.execute([IncrCommand(key=key, delta=delta)])
        response = result[0]
        if isinstance(response, NumberResponse):
            return response.value
        if isinstance(response, SimpleResponse) and response.line == b"NOT_FOUND":
            return None
        raise unexpected_response(response, "INCR")

    async def flush_all(self) -> bool:
        result = await self.execute([FlushCommand()])
        response = result[0]
        return isinstance(response, SimpleResponse) and response.line == b"OK"

    async def stats(self, subcommand: str = "") -> Dict[str, str]:
        result = await self.execute([StatsCommand(subcommand=subcommand)])
        response = result[0]
        if not isinstance(response, StatsResponse):
            raise unexpected_response(response, "STATS")
        return dict(response.stats)

    async def stats_reset(self) -> bool:
        """``stats reset``: zero the server's resettable counters."""
        result = await self.execute([StatsCommand(subcommand="reset")])
        response = result[0]
        return isinstance(response, SimpleResponse) and response.line == b"RESET"

    # -- pipelined batches -----------------------------------------------------

    async def get_many(self, keys: Sequence[bytes]) -> Dict[bytes, bytes]:
        """Multi-key GET; ``{key: value}`` of the hits.

        One MGET frame per call: one parse, one vectored dispatch and one
        response encode server-side.
        """
        if not keys:
            return {}
        result = await self.execute([MultiGetCommand(keys=tuple(keys))])
        response = result[0]
        if not isinstance(response, GetResponse):
            raise unexpected_response(response, "MGET")
        return {v.key: v.value for v in response.values}

    async def set_many(
        self, items: Sequence[Tuple[bytes, bytes, int]], exptime: float = 0
    ) -> int:
        """SETs of (key, value, cost[, version]) tuples; returns #stored.

        One MSET frame per call.  A 4th tuple element carries a
        replication version (0 / omitted = none).
        """
        statuses = await self.set_many_statuses(items, exptime=exptime)
        return sum(1 for status in statuses if status == b"STORED")

    async def set_many_statuses(
        self, items: Sequence[Tuple[bytes, bytes, int]], exptime: float = 0
    ) -> List[bytes]:
        """Like :meth:`set_many` but returns per-item status words.

        The replication pool needs per-key attribution, not just a count:
        ``NOT_STORED`` (a last-writer-wins reject — the replica already
        holds something *newer*, so the write is durably resolved) must
        count as an ack, while ``OOM``/``TOO_LARGE``/``ERROR`` must not.
        Statuses come back verbatim from the MSET response.
        """
        if not items:
            return []
        command = MultiSetCommand(
            items=tuple(
                StoreCommand(verb="set", key=item[0], flags=0,
                             exptime=exptime, value=item[1], cost=item[2],
                             version=item[3] if len(item) == 4 else 0)
                for item in items
            )
        )
        result = await self.execute([command])
        response = result[0]
        if not isinstance(response, MultiSetResponse):
            raise unexpected_response(response, "MSET")
        if len(response.statuses) != len(items):
            raise ProtocolError(
                "MSET answered %d statuses for %d items"
                % (len(response.statuses), len(items))
            )
        return list(response.statuses)

    async def digest(self, nslots: int) -> DigestResponse:
        """Anti-entropy digest: per-slot (count, hash) over live keys."""
        result = await self.execute([DigestCommand(nslots=nslots)])
        response = result[0]
        if not isinstance(response, DigestResponse):
            raise unexpected_response(response, "DIGEST")
        return response

    async def key_entries(self, slot: int, nslots: int) -> KeyListResponse:
        """One digest slot's (key, version, cost, flags, exptime) entries."""
        result = await self.execute([KeyListCommand(slot=slot, nslots=nslots)])
        response = result[0]
        if not isinstance(response, KeyListResponse):
            raise unexpected_response(response, "KEYS")
        return response

    @staticmethod
    def _check_stored(response) -> bool:
        if isinstance(response, SimpleResponse):
            if response.line == b"STORED":
                return True
            if response.line == b"NOT_STORED":
                return False
        raise unexpected_response(response, "store")
