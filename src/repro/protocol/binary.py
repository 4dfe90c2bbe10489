"""The memcached binary protocol, with the paper's cost extension.

Frames are a fixed 24-byte header plus extras/key/value::

    offset  field
    0       magic        0x80 request / 0x81 response
    1       opcode
    2-3     key length
    4       extras length
    5       data type    (always 0)
    6-7     vbucket id (request) / status (response)
    8-11    total body length (extras + key + value)
    12-15   opaque       (echoed verbatim)
    16-23   cas

Storage requests (SET/ADD/REPLACE) carry ``flags(4) exptime(4)`` extras;
**our cost extension** allows a 12-byte variant ``flags(4) exptime(4)
cost(4)`` — the binary-protocol mirror of the paper's Section 4.3 text
extension.  Stock 8-byte extras still parse (cost 0), so clients unaware
of costs interoperate, matching the paper's compatibility story.

INCR/DECR carry ``delta(8) initial(8) exptime(4)`` extras and return the
8-byte counter value; GET responses carry ``flags(4)`` extras.  CAS rides
in the header's cas field, as in stock memcached.

**Batched frames (this repo's extension, PR 8).**  ``OP_MGET`` (0x30) and
``OP_MSET`` (0x31) live in the vendor opcode range, clear of every stock
opcode, and carry a whole batch in one frame's value::

    MGET request value   count(4) then count × [klen(2) key]
    MGET response value  count(4) then count × [klen(2) flags(4) vlen(4)
                         key value]            (found items only)
    MSET request value   count(4) then count × [klen(2) flags(4)
                         exptime(4) cost(4) vlen(4) key value]
    MSET response value  count(4) then count × [status(2)]  (in item order)

An MGET request may carry the 17-byte trace-context extras — **one**
context for the whole frame, where the per-key path pays one per key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.kvstore.errors import (
    CasMismatchError,
    NotStoredError,
    ObjectTooLargeError,
    OutOfMemoryError,
)
from repro.kvstore.item import NEVER_EXPIRES
from repro.kvstore.store import KVStore
from repro.obs import tracing
from repro.protocol.commands import ProtocolError

MAGIC_REQUEST = 0x80
MAGIC_RESPONSE = 0x81
HEADER = struct.Struct(">BBHBBHIIQ")
HEADER_SIZE = 24

# -- opcodes (stock memcached values) ------------------------------------------
OP_GET = 0x00
OP_SET = 0x01
OP_ADD = 0x02
OP_REPLACE = 0x03
OP_DELETE = 0x04
OP_INCREMENT = 0x05
OP_DECREMENT = 0x06
OP_QUIT = 0x07
OP_FLUSH = 0x08
OP_NOOP = 0x0A
OP_VERSION = 0x0B
OP_APPEND = 0x0E
OP_PREPEND = 0x0F
OP_STAT = 0x10
OP_TOUCH = 0x1C

# -- batched opcodes (this repo's extension; vendor range, clear of stock ops) --
OP_MGET = 0x30
OP_MSET = 0x31

# -- status codes ---------------------------------------------------------------
STATUS_OK = 0x0000
STATUS_KEY_NOT_FOUND = 0x0001
STATUS_KEY_EXISTS = 0x0002
STATUS_VALUE_TOO_LARGE = 0x0003
STATUS_INVALID_ARGUMENTS = 0x0004
STATUS_NOT_STORED = 0x0005
STATUS_NON_NUMERIC = 0x0006
STATUS_UNKNOWN_COMMAND = 0x0081
STATUS_OUT_OF_MEMORY = 0x0082

_STORAGE_OPS = (OP_SET, OP_ADD, OP_REPLACE)


@dataclass(frozen=True)
class BinaryFrame:
    """One request or response frame (header fields + body parts)."""

    magic: int
    opcode: int
    status: int = 0  # vbucket on requests
    opaque: int = 0
    cas: int = 0
    extras: bytes = b""
    key: bytes = b""
    value: bytes = b""

    def pack(self) -> bytes:
        body = self.extras + self.key + self.value
        header = HEADER.pack(
            self.magic,
            self.opcode,
            len(self.key),
            len(self.extras),
            0,
            self.status,
            len(body),
            self.opaque,
            self.cas,
        )
        return header + body


def request(opcode: int, key: bytes = b"", value: bytes = b"",
            extras: bytes = b"", opaque: int = 0, cas: int = 0) -> BinaryFrame:
    return BinaryFrame(magic=MAGIC_REQUEST, opcode=opcode, key=key,
                       value=value, extras=extras, opaque=opaque, cas=cas)


def response(opcode: int, status: int = STATUS_OK, key: bytes = b"",
             value: bytes = b"", extras: bytes = b"", opaque: int = 0,
             cas: int = 0) -> BinaryFrame:
    return BinaryFrame(magic=MAGIC_RESPONSE, opcode=opcode, status=status,
                       key=key, value=value, extras=extras, opaque=opaque,
                       cas=cas)


class BinaryParser:
    """Incremental frame parser (request or response side).

    Single-pass and zero-copy: header fields unpack in place
    (``unpack_from`` at the consumed offset) and each body part —
    extras, key, value — is copied out of the receive buffer exactly
    once, through a :class:`memoryview`, directly into its final
    ``bytes`` object.  The old parser sliced the whole body out first
    (``bytes(buffer[24:total])``) and then sliced that copy three more
    times: 2× the bytes moved, plus a ``del buffer[:total]`` compaction
    per frame.  Consumed frames now just advance ``_start``; the buffer
    compacts once per :meth:`feed`, amortized across a pipelined batch.
    """

    __slots__ = ("_buffer", "_start", "_expect_magic")

    def __init__(self, expect_magic: int) -> None:
        self._buffer = bytearray()
        self._start = 0
        self._expect_magic = expect_magic

    def feed(self, data: bytes) -> None:
        if self._start:
            del self._buffer[: self._start]
            self._start = 0
        self._buffer.extend(data)

    def __iter__(self) -> Iterator[BinaryFrame]:
        while True:
            frame = self.try_parse()
            if frame is None:
                return
            yield frame

    def try_parse(self) -> Optional[BinaryFrame]:
        buffer = self._buffer
        start = self._start
        if len(buffer) - start < HEADER_SIZE:
            return None
        (magic, opcode, key_len, extras_len, data_type, status, body_len,
         opaque, cas) = HEADER.unpack_from(buffer, start)
        if magic != self._expect_magic:
            raise ProtocolError(f"bad magic byte 0x{magic:02x}")
        if data_type != 0:
            raise ProtocolError(f"unsupported data type {data_type}")
        if extras_len + key_len > body_len:
            raise ProtocolError("body length inconsistent with key/extras")
        total = HEADER_SIZE + body_len
        if len(buffer) - start < total:
            return None
        extras_off = start + HEADER_SIZE
        key_off = extras_off + extras_len
        value_off = key_off + key_len
        end = start + total
        # scoped view: released before any feed() can resize the buffer
        with memoryview(buffer) as view:
            extras = bytes(view[extras_off:key_off])
            key = bytes(view[key_off:value_off])
            value = bytes(view[value_off:end])
        self._start = end
        return BinaryFrame(magic=magic, opcode=opcode, status=status,
                           opaque=opaque, cas=cas, extras=extras, key=key,
                           value=value)


# -- extras helpers ---------------------------------------------------------------

_STORE_EXTRAS = struct.Struct(">II")  # flags, exptime
_STORE_EXTRAS_COST = struct.Struct(">III")  # flags, exptime, cost (extension)
_GET_EXTRAS = struct.Struct(">I")  # flags
_COUNTER_EXTRAS = struct.Struct(">QQI")  # delta, initial, exptime
_TOUCH_EXTRAS = struct.Struct(">I")  # exptime


def pack_store_extras(flags: int, exptime: int, cost: int = 0) -> bytes:
    if cost:
        return _STORE_EXTRAS_COST.pack(flags, exptime, cost)
    return _STORE_EXTRAS.pack(flags, exptime)


def unpack_store_extras(extras: bytes) -> Tuple[int, int, int]:
    """(flags, exptime, cost); stock 8-byte extras imply cost 0."""
    if len(extras) == _STORE_EXTRAS.size:
        flags, exptime = _STORE_EXTRAS.unpack(extras)
        return flags, exptime, 0
    if len(extras) == _STORE_EXTRAS_COST.size:
        return _STORE_EXTRAS_COST.unpack(extras)
    raise ProtocolError(f"bad storage extras length {len(extras)}")


# -- batched frame value codecs (OP_MGET / OP_MSET) -----------------------------

_BATCH_COUNT = struct.Struct(">I")
_MGET_KEY = struct.Struct(">H")  # klen
_MGET_ITEM = struct.Struct(">HII")  # klen, flags, vlen
_MSET_ITEM = struct.Struct(">HIIII")  # klen, flags, exptime, cost, vlen
_MSET_STATUS = struct.Struct(">H")

#: upper bound on items per batched frame (mirrors text MAX_MSET_ITEMS)
MAX_BATCH_ITEMS = 4096


def pack_mget_value(keys) -> bytes:
    """Request value for OP_MGET: ``count`` then length-prefixed keys."""
    out = bytearray(_BATCH_COUNT.pack(len(keys)))
    for key in keys:
        out += _MGET_KEY.pack(len(key))
        out += key
    return bytes(out)


def unpack_mget_value(value: bytes) -> Tuple[bytes, ...]:
    """Decode an OP_MGET request value into its key tuple."""
    if len(value) < _BATCH_COUNT.size:
        raise ProtocolError("truncated mget body")
    (count,) = _BATCH_COUNT.unpack_from(value)
    if count > MAX_BATCH_ITEMS:
        raise ProtocolError(f"mget batch too large ({count})")
    keys = []
    offset = _BATCH_COUNT.size
    with memoryview(value) as view:
        for _ in range(count):
            if len(value) - offset < _MGET_KEY.size:
                raise ProtocolError("truncated mget body")
            (klen,) = _MGET_KEY.unpack_from(value, offset)
            offset += _MGET_KEY.size
            if len(value) - offset < klen:
                raise ProtocolError("truncated mget body")
            keys.append(bytes(view[offset : offset + klen]))
            offset += klen
    if offset != len(value):
        raise ProtocolError("trailing bytes after mget body")
    return tuple(keys)


def pack_mget_reply_value(keys, items) -> bytes:
    """Response value for OP_MGET: found items only, in key order."""
    out = bytearray(_BATCH_COUNT.size)
    found = 0
    for key, item in zip(keys, items):
        if item is None:
            continue
        found += 1
        out += _MGET_ITEM.pack(len(key), item.flags, len(item.value))
        out += key
        out += item.value
    _BATCH_COUNT.pack_into(out, 0, found)
    return bytes(out)


def unpack_mget_reply_value(value: bytes):
    """Decode an OP_MGET response value to ``[(key, flags, value)]``."""
    if len(value) < _BATCH_COUNT.size:
        raise ProtocolError("truncated mget reply")
    (count,) = _BATCH_COUNT.unpack_from(value)
    if count > MAX_BATCH_ITEMS:
        raise ProtocolError(f"mget reply too large ({count})")
    out = []
    offset = _BATCH_COUNT.size
    with memoryview(value) as view:
        for _ in range(count):
            if len(value) - offset < _MGET_ITEM.size:
                raise ProtocolError("truncated mget reply")
            klen, flags, vlen = _MGET_ITEM.unpack_from(value, offset)
            offset += _MGET_ITEM.size
            if len(value) - offset < klen + vlen:
                raise ProtocolError("truncated mget reply")
            key = bytes(view[offset : offset + klen])
            offset += klen
            item_value = bytes(view[offset : offset + vlen])
            offset += vlen
            out.append((key, flags, item_value))
    if offset != len(value):
        raise ProtocolError("trailing bytes after mget reply")
    return out


def pack_mset_value(items) -> bytes:
    """Request value for OP_MSET from ``(key, value, cost, exptime, flags)``."""
    out = bytearray(_BATCH_COUNT.pack(len(items)))
    for key, value, cost, exptime, flags in items:
        out += _MSET_ITEM.pack(len(key), flags, exptime, cost, len(value))
        out += key
        out += value
    return bytes(out)


def unpack_mset_value(value: bytes):
    """Decode an OP_MSET request value to ``[(key, flags, exptime, cost, value)]``."""
    if len(value) < _BATCH_COUNT.size:
        raise ProtocolError("truncated mset body")
    (count,) = _BATCH_COUNT.unpack_from(value)
    if count > MAX_BATCH_ITEMS:
        raise ProtocolError(f"mset batch too large ({count})")
    out = []
    offset = _BATCH_COUNT.size
    with memoryview(value) as view:
        for _ in range(count):
            if len(value) - offset < _MSET_ITEM.size:
                raise ProtocolError("truncated mset body")
            klen, flags, exptime, cost, vlen = _MSET_ITEM.unpack_from(
                value, offset
            )
            offset += _MSET_ITEM.size
            if len(value) - offset < klen + vlen:
                raise ProtocolError("truncated mset body")
            key = bytes(view[offset : offset + klen])
            offset += klen
            item_value = bytes(view[offset : offset + vlen])
            offset += vlen
            out.append((key, flags, exptime, cost, item_value))
    if offset != len(value):
        raise ProtocolError("trailing bytes after mset body")
    return out


def pack_mset_reply_value(statuses) -> bytes:
    """Response value for OP_MSET: per-item status codes, in order."""
    out = bytearray(_BATCH_COUNT.pack(len(statuses)))
    for status in statuses:
        out += _MSET_STATUS.pack(status)
    return bytes(out)


def unpack_mset_reply_value(value: bytes) -> Tuple[int, ...]:
    if len(value) < _BATCH_COUNT.size:
        raise ProtocolError("truncated mset reply")
    (count,) = _BATCH_COUNT.unpack_from(value)
    if len(value) != _BATCH_COUNT.size + count * _MSET_STATUS.size:
        raise ProtocolError("mset reply length mismatch")
    return tuple(
        _MSET_STATUS.unpack_from(value, _BATCH_COUNT.size + i * _MSET_STATUS.size)[0]
        for i in range(count)
    )


class BinaryStoreServer:
    """Dispatches binary frames onto a :class:`KVStore`.

    With ``tracer`` set, a GET whose request extras carry a sampled
    17-byte trace context (:func:`repro.obs.tracing.pack_trace_extras`)
    records a ``server.dispatch`` span continuing the client's trace.
    Stock dispatch ignores GET request extras, so trace-aware clients
    interoperate with tracer-less servers — and any other extras length
    degrades to "no context" here.
    """

    VERSION = b"gdwheel-repro-1.0"

    def __init__(self, store: KVStore,
                 tracer: Optional["tracing.Tracer"] = None) -> None:
        self.store = store
        self.tracer = tracer

    def handle_bytes(self, parser: BinaryParser, data: bytes) -> Tuple[bytes, bool]:
        out = bytearray()
        try:
            parser.feed(data)
            for frame in parser:
                reply, keep_open = self.dispatch(frame)
                if reply is not None:
                    out += reply.pack()
                if not keep_open:
                    return bytes(out), False
        except ProtocolError:
            out += response(0, status=STATUS_UNKNOWN_COMMAND).pack()
            return bytes(out), False
        return bytes(out), True

    def dispatch(self, frame: BinaryFrame) -> Tuple[Optional[BinaryFrame], bool]:
        store = self.store
        op = frame.opcode
        opq = frame.opaque

        if op == OP_GET:
            tracer = self.tracer
            context = (
                tracing.unpack_trace_extras(frame.extras)
                if tracer is not None and frame.extras else None
            )
            if context is not None and context.sampled:
                with tracer.span(
                    "server.dispatch", trace_id=context.trace_id,
                    parent_id=context.span_id, cmd="get", proto="binary",
                ):
                    item = store.get(frame.key)
            else:
                item = store.get(frame.key)
            if item is None:
                return response(op, STATUS_KEY_NOT_FOUND, opaque=opq), True
            return (
                response(op, extras=_GET_EXTRAS.pack(item.flags),
                         value=item.value, opaque=opq, cas=item.cas_unique),
                True,
            )

        if op == OP_MGET:
            try:
                keys = unpack_mget_value(frame.value)
            except ProtocolError:
                return response(op, STATUS_INVALID_ARGUMENTS, opaque=opq), True
            tracer = self.tracer
            context = (
                tracing.unpack_trace_extras(frame.extras)
                if tracer is not None and frame.extras else None
            )
            # one span for the whole frame — batching collapses N per-key
            # trace contexts into one
            if context is not None and context.sampled:
                with tracer.span(
                    "server.dispatch", trace_id=context.trace_id,
                    parent_id=context.span_id, cmd="mget", proto="binary",
                    nkeys=len(keys),
                ):
                    items = store.get_many(keys)
            else:
                items = store.get_many(keys)
            return (
                response(op, value=pack_mget_reply_value(keys, items),
                         opaque=opq),
                True,
            )

        if op == OP_MSET:
            try:
                items = unpack_mset_value(frame.value)
            except ProtocolError:
                return response(op, STATUS_INVALID_ARGUMENTS, opaque=opq), True
            now = store.clock.now
            entries = [
                (key, value, cost,
                 now + exptime if exptime else NEVER_EXPIRES, flags)
                for key, flags, exptime, cost, value in items
            ]
            statuses = []
            for result in store.set_many(entries):
                if isinstance(result, ObjectTooLargeError):
                    statuses.append(STATUS_VALUE_TOO_LARGE)
                elif isinstance(result, OutOfMemoryError):
                    statuses.append(STATUS_OUT_OF_MEMORY)
                elif isinstance(result, BaseException):
                    statuses.append(STATUS_NOT_STORED)
                else:
                    statuses.append(STATUS_OK)
            return (
                response(op, value=pack_mset_reply_value(statuses),
                         opaque=opq),
                True,
            )

        if op in _STORAGE_OPS:
            try:
                flags, exptime, cost = unpack_store_extras(frame.extras)
            except ProtocolError:
                return response(op, STATUS_INVALID_ARGUMENTS, opaque=opq), True
            abs_exptime = (
                store.clock.now + exptime if exptime else NEVER_EXPIRES
            )
            try:
                if frame.cas:
                    item = store.cas(frame.key, frame.value, frame.cas,
                                     cost=cost, exptime=abs_exptime,
                                     flags=flags)
                elif op == OP_SET:
                    item = store.set(frame.key, frame.value, cost=cost,
                                     exptime=abs_exptime, flags=flags)
                elif op == OP_ADD:
                    item = store.add(frame.key, frame.value, cost=cost,
                                     exptime=abs_exptime, flags=flags)
                else:
                    item = store.replace(frame.key, frame.value, cost=cost,
                                         exptime=abs_exptime, flags=flags)
            except CasMismatchError:
                return response(op, STATUS_KEY_EXISTS, opaque=opq), True
            except NotStoredError:
                status = (
                    STATUS_KEY_NOT_FOUND if frame.cas or op == OP_REPLACE
                    else STATUS_KEY_EXISTS if op == OP_ADD
                    else STATUS_NOT_STORED
                )
                return response(op, status, opaque=opq), True
            except ObjectTooLargeError:
                return response(op, STATUS_VALUE_TOO_LARGE, opaque=opq), True
            except OutOfMemoryError:
                return response(op, STATUS_OUT_OF_MEMORY, opaque=opq), True
            return response(op, opaque=opq, cas=item.cas_unique), True

        if op in (OP_APPEND, OP_PREPEND):
            try:
                if op == OP_APPEND:
                    item = store.append(frame.key, frame.value)
                else:
                    item = store.prepend(frame.key, frame.value)
            except NotStoredError:
                return response(op, STATUS_NOT_STORED, opaque=opq), True
            return response(op, opaque=opq, cas=item.cas_unique), True

        if op == OP_DELETE:
            found = store.delete(frame.key)
            status = STATUS_OK if found else STATUS_KEY_NOT_FOUND
            return response(op, status, opaque=opq), True

        if op in (OP_INCREMENT, OP_DECREMENT):
            if len(frame.extras) != _COUNTER_EXTRAS.size:
                return response(op, STATUS_INVALID_ARGUMENTS, opaque=opq), True
            delta, initial, exptime = _COUNTER_EXTRAS.unpack(frame.extras)
            try:
                signed = delta if op == OP_INCREMENT else -delta
                result = store.incr(frame.key, signed)
            except NotStoredError:
                # binary protocol semantics: seed with the initial value
                # unless exptime is the 0xffffffff "fail" sentinel
                if exptime == 0xFFFFFFFF:
                    return response(op, STATUS_KEY_NOT_FOUND, opaque=opq), True
                abs_exptime = (
                    store.clock.now + exptime if exptime else NEVER_EXPIRES
                )
                item = store.set(frame.key, b"%d" % initial,
                                 exptime=abs_exptime)
                return (
                    response(op, value=struct.pack(">Q", initial),
                             opaque=opq, cas=item.cas_unique),
                    True,
                )
            except ValueError:
                return response(op, STATUS_NON_NUMERIC, opaque=opq), True
            return (
                response(op, value=struct.pack(">Q", result), opaque=opq),
                True,
            )

        if op == OP_TOUCH:
            if len(frame.extras) != _TOUCH_EXTRAS.size:
                return response(op, STATUS_INVALID_ARGUMENTS, opaque=opq), True
            (exptime,) = _TOUCH_EXTRAS.unpack(frame.extras)
            abs_exptime = store.clock.now + exptime if exptime else NEVER_EXPIRES
            found = store.touch_ttl(frame.key, abs_exptime)
            status = STATUS_OK if found else STATUS_KEY_NOT_FOUND
            return response(op, status, opaque=opq), True

        if op == OP_FLUSH:
            store.flush_all()
            return response(op, opaque=opq), True

        if op == OP_NOOP:
            return response(op, opaque=opq), True

        if op == OP_VERSION:
            return response(op, value=self.VERSION, opaque=opq), True

        if op == OP_STAT:
            # one frame per stat, terminated by an empty-key frame: we pack
            # them all into the reply stream the way memcached does
            frames = bytearray()
            for name, value in sorted(self.store.stats.snapshot().items()):
                frames += response(
                    op, key=name.encode(), value=str(value).encode(),
                    opaque=opq,
                ).pack()
            frames += response(op, opaque=opq).pack()
            # piggyback: return a pseudo-frame carrying raw bytes is not
            # possible here, so STAT is handled in handle_bytes-compatible
            # form via _RawReply
            return _RawReply(bytes(frames)), True

        if op == OP_QUIT:
            return response(op, opaque=opq), False

        return response(op, STATUS_UNKNOWN_COMMAND, opaque=opq), True


class _RawReply:
    """Pre-packed multi-frame reply (used by STAT)."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload

    def pack(self) -> bytes:
        return self._payload


class BinaryClient:
    """A synchronous binary-protocol client over an in-process server.

    The loopback form is enough for tests and examples; the wire bytes are
    identical to what a socket transport would carry.
    """

    def __init__(self, server: BinaryStoreServer) -> None:
        self._server = server
        self._request_parser = BinaryParser(MAGIC_REQUEST)
        self._response_parser = BinaryParser(MAGIC_RESPONSE)
        self._opaque = 0

    def _roundtrip(self, frame: BinaryFrame) -> BinaryFrame:
        self._opaque += 1
        frame = BinaryFrame(
            magic=frame.magic, opcode=frame.opcode, status=frame.status,
            opaque=self._opaque, cas=frame.cas, extras=frame.extras,
            key=frame.key, value=frame.value,
        )
        reply_bytes, _open = self._server.handle_bytes(
            self._request_parser, frame.pack()
        )
        self._response_parser.feed(reply_bytes)
        reply = self._response_parser.try_parse()
        assert reply is not None, "server returned an incomplete frame"
        if reply.opaque != self._opaque:
            raise ProtocolError("opaque mismatch in response")
        return reply

    def _roundtrip_multi(self, frame: BinaryFrame) -> list:
        self._opaque += 1
        frame = BinaryFrame(
            magic=frame.magic, opcode=frame.opcode, opaque=self._opaque,
            extras=frame.extras, key=frame.key, value=frame.value,
        )
        reply_bytes, _open = self._server.handle_bytes(
            self._request_parser, frame.pack()
        )
        self._response_parser.feed(reply_bytes)
        return list(self._response_parser)

    # -- operations --------------------------------------------------------------

    def get(self, key: bytes,
            context: Optional["tracing.TraceContext"] = None) -> Optional[bytes]:
        extras = tracing.pack_trace_extras(context) if context is not None else b""
        reply = self._roundtrip(request(OP_GET, key=key, extras=extras))
        return reply.value if reply.status == STATUS_OK else None

    def get_many(self, keys,
                 context: Optional["tracing.TraceContext"] = None) -> dict:
        """Fetch a key batch with one OP_MGET frame; ``{key: value}`` of hits."""
        keys = list(keys)
        if not keys:
            return {}
        extras = (
            tracing.pack_trace_extras(context) if context is not None else b""
        )
        reply = self._roundtrip(
            request(OP_MGET, value=pack_mget_value(keys), extras=extras)
        )
        if reply.status != STATUS_OK:
            raise ProtocolError(f"mget failed with status {reply.status}")
        return {
            key: value
            for key, _flags, value in unpack_mget_reply_value(reply.value)
        }

    def set_many(self, entries) -> Tuple[int, ...]:
        """Store ``(key, value, cost, exptime, flags)`` entries in one
        OP_MSET frame; returns per-item status codes in entry order."""
        entries = list(entries)
        if not entries:
            return ()
        reply = self._roundtrip(request(OP_MSET, value=pack_mset_value(entries)))
        if reply.status != STATUS_OK:
            raise ProtocolError(f"mset failed with status {reply.status}")
        statuses = unpack_mset_reply_value(reply.value)
        if len(statuses) != len(entries):
            raise ProtocolError("mset reply count mismatch")
        return statuses

    def gets(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        reply = self._roundtrip(request(OP_GET, key=key))
        if reply.status != STATUS_OK:
            return None
        return reply.value, reply.cas

    def set(self, key: bytes, value: bytes, cost: int = 0, exptime: int = 0,
            flags: int = 0, cas: int = 0) -> int:
        reply = self._roundtrip(
            request(OP_SET, key=key, value=value,
                    extras=pack_store_extras(flags, exptime, cost), cas=cas)
        )
        return reply.status

    def add(self, key: bytes, value: bytes, cost: int = 0) -> int:
        reply = self._roundtrip(
            request(OP_ADD, key=key, value=value,
                    extras=pack_store_extras(0, 0, cost))
        )
        return reply.status

    def replace(self, key: bytes, value: bytes, cost: int = 0) -> int:
        reply = self._roundtrip(
            request(OP_REPLACE, key=key, value=value,
                    extras=pack_store_extras(0, 0, cost))
        )
        return reply.status

    def append(self, key: bytes, suffix: bytes) -> int:
        return self._roundtrip(
            request(OP_APPEND, key=key, value=suffix)
        ).status

    def prepend(self, key: bytes, prefix: bytes) -> int:
        return self._roundtrip(
            request(OP_PREPEND, key=key, value=prefix)
        ).status

    def delete(self, key: bytes) -> int:
        return self._roundtrip(request(OP_DELETE, key=key)).status

    def incr(self, key: bytes, delta: int = 1, initial: int = 0,
             exptime: int = 0) -> Optional[int]:
        reply = self._roundtrip(
            request(OP_INCREMENT, key=key,
                    extras=_COUNTER_EXTRAS.pack(delta, initial, exptime))
        )
        if reply.status != STATUS_OK:
            return None
        return struct.unpack(">Q", reply.value)[0]

    def decr(self, key: bytes, delta: int = 1, initial: int = 0,
             exptime: int = 0) -> Optional[int]:
        reply = self._roundtrip(
            request(OP_DECREMENT, key=key,
                    extras=_COUNTER_EXTRAS.pack(delta, initial, exptime))
        )
        if reply.status != STATUS_OK:
            return None
        return struct.unpack(">Q", reply.value)[0]

    def touch(self, key: bytes, exptime: int) -> int:
        return self._roundtrip(
            request(OP_TOUCH, key=key, extras=_TOUCH_EXTRAS.pack(exptime))
        ).status

    def flush_all(self) -> int:
        return self._roundtrip(request(OP_FLUSH)).status

    def noop(self) -> int:
        return self._roundtrip(request(OP_NOOP)).status

    def version(self) -> bytes:
        return self._roundtrip(request(OP_VERSION)).value

    def stats(self) -> dict:
        frames = self._roundtrip_multi(request(OP_STAT))
        out = {}
        for frame in frames:
            if not frame.key:
                break
            out[frame.key.decode()] = frame.value.decode()
        return out

    def quit(self) -> None:
        self._roundtrip(request(OP_QUIT))
