"""The memcached text protocol, extended with the paper's cost token.

Wire format (request lines end with ``\\r\\n``; value blocks follow storage
command lines)::

    get <key> [<key> ...]\r\n
    set <key> <flags> <exptime> <bytes> [cost <cost>] [version <v>] [noreply]\r\n<data>\r\n
    add/replace ...                                 (same shape as set)
    delete <key> [noreply]\r\n
    touch <key> <exptime> [noreply]\r\n
    flush_all [noreply]\r\n
    stats [slabs|items|settings|metrics|trace|reset]\r\n
    digest <nslots>\r\n
    keys <slot> <nslots>\r\n
    quit\r\n

The paper modifies the SET protocol "so that clients are able to optionally
send cost information with each key-value pair" (Section 4.3).  We encode
the extension as a ``cost <n>`` token pair before the optional ``noreply``;
servers that don't know the token would reject it, and clients that omit it
speak stock memcached — the same compatibility story as the paper's.

The replication layer (:mod:`repro.replica`) adds a second optional token
pair — ``version <v>``, a hybrid-logical-clock version used for
last-writer-wins conflict resolution between replicas — and two
anti-entropy commands: ``digest`` (per-slot key/version summary) and
``keys`` (one slot's key metadata, for repair and bootstrap).

:class:`RequestParser` is an incremental parser over a byte stream (framing
included), suitable for feeding raw socket reads.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Union

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
    QuitCommand,
    SimpleResponse,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TouchCommand,
    ValueResponse,
)

CRLF = b"\r\n"
MAX_KEY_LENGTH = 250
MAX_LINE_LENGTH = 8192
#: upper bound on items in one ``mset`` frame (bounds parser buffering)
MAX_MSET_ITEMS = 4096
#: upper bound on anti-entropy digest slot counts (bounds response size)
MAX_DIGEST_SLOTS = 65536

#: sentinel: the parsed line was an ``mset`` item absorbed into the
#: pending batch — keep scanning, no command is ready yet
_ABSORBED = object()

#: trailing ``get`` token carrying a trace context (kept literal here so
#: the parser does not import the tracing stack; the codec lives in
#: :mod:`repro.obs.tracing` and both spell the same prefix)
_TRACE_TOKEN_PREFIX = b"tctx:"

Command = Union[
    GetCommand,
    MultiGetCommand,
    MultiSetCommand,
    StoreCommand,
    IncrCommand,
    DeleteCommand,
    TouchCommand,
    FlushCommand,
    StatsCommand,
    DigestCommand,
    KeyListCommand,
    QuitCommand,
]

_STORAGE_VERBS = (b"set", b"add", b"replace", b"append", b"prepend", b"cas")


#: bytes a key may not contain: space, control characters and DEL
_BAD_KEY_BYTE = re.compile(rb"[\x00-\x20\x7f]")


def _validate_key(key: bytes) -> bytes:
    if not key or len(key) > MAX_KEY_LENGTH:
        raise ProtocolError(f"bad key length {len(key)}")
    if _BAD_KEY_BYTE.search(key) is not None:
        raise ProtocolError("key contains whitespace or control characters")
    return key


def _parse_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(f"bad {what}: {token!r}") from None


class RequestParser:
    """Incremental request parser: feed bytes, iterate complete commands.

    Consumption is offset-based: parsed commands advance ``_start`` instead
    of ``del``-ing the buffer prefix, so a deep pipelined read is scanned
    without shifting the remaining bytes once per command.  The consumed
    prefix is dropped in one amortized compaction on the next :meth:`feed`.

    Value payloads are sliced straight out of the receive buffer through a
    :class:`memoryview` — one copy at hand-off, no intermediate
    ``bytearray`` slice — which is what keeps deep MSET frames single-pass.
    """

    __slots__ = (
        "_buffer", "_start", "_pending", "_pending_bytes",
        "_mset_items", "_mset_remaining", "_mset_noreply",
    )

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._start = 0  # consumed prefix length (compacted on feed)
        self._pending: Optional[StoreCommand] = None
        self._pending_bytes = 0
        self._mset_items: Optional[List[StoreCommand]] = None
        self._mset_remaining = 0
        self._mset_noreply = False

    def feed(self, data: bytes) -> None:
        buffer = self._buffer
        if self._start:
            del buffer[: self._start]
            self._start = 0
        buffer.extend(data)
        if len(buffer) > MAX_LINE_LENGTH + self._pending_bytes + 2:
            # guard against unframed garbage flooding the buffer
            if self._pending is None and buffer.find(CRLF) < 0:
                raise ProtocolError("request line too long")

    def __iter__(self) -> Iterator[Command]:
        while True:
            command = self._next_command()
            if command is None:
                return
            yield command

    def _next_command(self) -> Optional[Command]:
        # loops only while mset item blocks are being absorbed; every
        # other parse returns (or suspends on a partial frame) directly
        while True:
            if self._pending is not None:
                result = self._finish_store()
            else:
                start = self._start
                newline = self._buffer.find(CRLF, start)
                if newline < 0:
                    return None
                line = bytes(self._buffer[start:newline])
                self._start = newline + 2
                result = self._parse_line(line)
            if result is _ABSORBED:
                continue
            return result

    def _finish_store(self):
        need = self._pending_bytes + 2  # data + CRLF
        start = self._start
        buffer = self._buffer
        if len(buffer) - start < need:
            return None
        end = start + self._pending_bytes
        with memoryview(buffer) as view:
            if view[end : end + 2] != b"\r\n":
                self._start = start + need
                self._pending = None
                self._pending_bytes = 0
                raise ProtocolError("bad data chunk terminator")
            data = bytes(view[start:end])  # the one copy: value hand-off
        self._start = start + need
        pending = self._pending
        self._pending = None
        self._pending_bytes = 0
        # the pending command is private to this parser and not yet
        # published, so filling in its value beats re-constructing the
        # frozen dataclass (field-by-field object.__setattr__) per SET
        object.__setattr__(pending, "value", data)
        if self._mset_items is None:
            return pending
        return self._absorb_mset_item(pending)

    def _absorb_mset_item(self, item: StoreCommand):
        """Collect one completed mset item; emit the batch when full."""
        items = self._mset_items
        items.append(item)
        self._mset_remaining -= 1
        if self._mset_remaining > 0:
            return _ABSORBED
        self._mset_items = None
        command = MultiSetCommand(items=tuple(items), noreply=self._mset_noreply)
        self._mset_noreply = False
        return command

    def _parse_line(self, line: bytes) -> Command:
        if not line:
            raise ProtocolError("empty command line")
        parts = line.split()
        if self._mset_items is not None:
            return self._parse_mset_item(parts)
        verb = parts[0].lower()
        if verb == b"get" or verb == b"gets":
            if len(parts) < 2:
                raise ProtocolError("get requires at least one key")
            keys = parts[1:]
            # A trailing ``tctx:`` pseudo-key is a trace-context token
            # (repro.obs.tracing): strip it so dispatch never looks it up.
            # Servers predating this extension treat the token as one more
            # requested key and answer a miss — that asymmetry is the whole
            # backward-compatibility story, so only the *last* token is
            # interpreted and at least one real key must remain.
            trace_token = None
            if len(keys) > 1 and keys[-1].startswith(_TRACE_TOKEN_PREFIX):
                trace_token = keys[-1]
                keys = keys[:-1]
            return GetCommand(
                keys=tuple(_validate_key(k) for k in keys),
                with_cas=verb == b"gets",
                trace_token=trace_token,
            )
        if verb == b"mget":
            if len(parts) < 2:
                raise ProtocolError("mget requires at least one key")
            keys = parts[1:]
            # same trailing-token rule as ``get``: the last token is a
            # trace context only when at least one real key remains
            trace_token = None
            if len(keys) > 1 and keys[-1].startswith(_TRACE_TOKEN_PREFIX):
                trace_token = keys[-1]
                keys = keys[:-1]
            return MultiGetCommand(
                keys=tuple(_validate_key(k) for k in keys),
                trace_token=trace_token,
            )
        if verb == b"mset":
            if len(parts) not in (2, 3):
                raise ProtocolError("mset <count> [noreply]")
            count = _parse_int(parts[1], "count")
            if count < 0 or count > MAX_MSET_ITEMS:
                raise ProtocolError(f"mset count out of range: {count}")
            noreply = len(parts) == 3 and parts[2] == b"noreply"
            if len(parts) == 3 and not noreply:
                raise ProtocolError(f"unexpected token {parts[2]!r}")
            if count == 0:
                return MultiSetCommand(items=(), noreply=noreply)
            self._mset_items = []
            self._mset_remaining = count
            self._mset_noreply = noreply
            return _ABSORBED
        if verb in (b"incr", b"decr"):
            if len(parts) not in (3, 4):
                raise ProtocolError(f"{verb.decode()} <key> <delta> [noreply]")
            delta = _parse_int(parts[2], "delta")
            if delta < 0:
                raise ProtocolError("delta must be non-negative")
            noreply = len(parts) == 4 and parts[3] == b"noreply"
            return IncrCommand(
                key=_validate_key(parts[1]),
                delta=delta,
                negative=verb == b"decr",
                noreply=noreply,
            )
        if verb in _STORAGE_VERBS:
            return self._parse_storage(verb, parts)
        if verb == b"delete":
            if len(parts) not in (2, 3):
                raise ProtocolError("delete <key> [noreply]")
            noreply = len(parts) == 3 and parts[2] == b"noreply"
            if len(parts) == 3 and not noreply:
                raise ProtocolError(f"unexpected token {parts[2]!r}")
            return DeleteCommand(key=_validate_key(parts[1]), noreply=noreply)
        if verb == b"touch":
            if len(parts) not in (3, 4):
                raise ProtocolError("touch <key> <exptime> [noreply]")
            noreply = len(parts) == 4 and parts[3] == b"noreply"
            return TouchCommand(
                key=_validate_key(parts[1]),
                exptime=float(_parse_int(parts[2], "exptime")),
                noreply=noreply,
            )
        if verb == b"flush_all":
            noreply = len(parts) == 2 and parts[1] == b"noreply"
            return FlushCommand(noreply=noreply)
        if verb == b"stats":
            if len(parts) > 2:
                raise ProtocolError(
                    "stats [slabs|items|settings|metrics|trace|tier|reset]"
                )
            sub = parts[1].decode() if len(parts) == 2 else ""
            if sub not in ("", "slabs", "items", "settings",
                           "metrics", "trace", "tier", "reset"):
                raise ProtocolError(f"unknown stats subcommand {sub!r}")
            return StatsCommand(subcommand=sub)
        if verb == b"digest":
            if len(parts) != 2:
                raise ProtocolError("digest <nslots>")
            nslots = _parse_int(parts[1], "nslots")
            if nslots < 1 or nslots > MAX_DIGEST_SLOTS:
                raise ProtocolError(f"nslots out of range: {nslots}")
            return DigestCommand(nslots=nslots)
        if verb == b"keys":
            if len(parts) != 3:
                raise ProtocolError("keys <slot> <nslots>")
            slot = _parse_int(parts[1], "slot")
            nslots = _parse_int(parts[2], "nslots")
            if nslots < 1 or nslots > MAX_DIGEST_SLOTS:
                raise ProtocolError(f"nslots out of range: {nslots}")
            if slot < 0 or slot >= nslots:
                raise ProtocolError(f"slot out of range: {slot}")
            return KeyListCommand(slot=slot, nslots=nslots)
        if verb == b"quit":
            return QuitCommand()
        raise ProtocolError(f"unknown command {verb!r}")

    def _parse_mset_item(self, parts: List[bytes]):
        """One ``<key> <flags> <exptime> <bytes> [cost <n>] [version <v>]``
        item line.

        The data chunk that follows completes through the same
        ``_pending`` path as a plain SET, then lands in the batch via
        :meth:`_absorb_mset_item`.
        """
        try:
            if len(parts) < 4:
                raise ProtocolError(
                    "mset item: <key> <flags> <exptime> <bytes> "
                    "[cost <cost>] [version <version>]"
                )
            key = _validate_key(parts[0])
            flags = _parse_int(parts[1], "flags")
            exptime = float(_parse_int(parts[2], "exptime"))
            nbytes = _parse_int(parts[3], "bytes")
            if nbytes < 0:
                raise ProtocolError("negative byte count")
            cost = 0
            version = 0
            rest = parts[4:]
            while rest:
                token = rest.pop(0)
                if token == b"cost":
                    if not rest:
                        raise ProtocolError("cost token without a value")
                    cost = _parse_int(rest.pop(0), "cost")
                    if cost < 0:
                        raise ProtocolError("negative cost")
                elif token == b"version":
                    if not rest:
                        raise ProtocolError("version token without a value")
                    version = _parse_int(rest.pop(0), "version")
                    if version < 0:
                        raise ProtocolError("negative version")
                else:
                    raise ProtocolError(f"unexpected token {token!r}")
        except ProtocolError:
            self._mset_items = None
            self._mset_remaining = 0
            raise
        self._pending = StoreCommand(
            verb="set", key=key, flags=flags, exptime=exptime,
            value=b"", cost=cost, noreply=False, cas_unique=None,
            version=version,
        )
        self._pending_bytes = nbytes
        return self._finish_store()

    def _parse_storage(self, verb: bytes, parts: List[bytes]) -> Optional[Command]:
        if len(parts) < 5:
            raise ProtocolError(
                f"{verb.decode()} <key> <flags> <exptime> <bytes> "
                "[cost <cost>] [noreply]"
            )
        key = _validate_key(parts[1])
        flags = _parse_int(parts[2], "flags")
        exptime = float(_parse_int(parts[3], "exptime"))
        nbytes = _parse_int(parts[4], "bytes")
        if nbytes < 0:
            raise ProtocolError("negative byte count")
        cost = 0
        version = 0
        noreply = False
        cas_unique = None
        rest = parts[5:]
        if verb == b"cas":
            if not rest:
                raise ProtocolError("cas requires a cas_unique token")
            cas_unique = _parse_int(rest.pop(0), "cas_unique")
        while rest:
            token = rest.pop(0)
            if token == b"cost":
                if not rest:
                    raise ProtocolError("cost token without a value")
                cost = _parse_int(rest.pop(0), "cost")
                if cost < 0:
                    raise ProtocolError("negative cost")
            elif token == b"version":
                if not rest:
                    raise ProtocolError("version token without a value")
                version = _parse_int(rest.pop(0), "version")
                if version < 0:
                    raise ProtocolError("negative version")
            elif token == b"noreply":
                noreply = True
            else:
                raise ProtocolError(f"unexpected token {token!r}")
        self._pending = StoreCommand(
            verb=verb.decode(),
            key=key,
            flags=flags,
            exptime=exptime,
            value=b"",
            cost=cost,
            noreply=noreply,
            cas_unique=cas_unique,
            version=version,
        )
        self._pending_bytes = nbytes
        return self._finish_store()


# -- encoding -------------------------------------------------------------------


def encode_command_into(out: bytearray, command: Command) -> None:
    """Client side: append one command's wire bytes to ``out``.

    The pipelining client encodes a whole batch into one shared buffer
    and flushes it with a single write — the client-side mirror of the
    server's coalesced response buffer.
    """
    if isinstance(command, GetCommand):
        out += b"gets " if command.with_cas else b"get "
        out += b" ".join(command.keys)
        out += CRLF
        return
    if isinstance(command, MultiGetCommand):
        out += b"mget "
        out += b" ".join(command.keys)
        if command.trace_token is not None:
            out += b" "
            out += command.trace_token
        out += CRLF
        return
    if isinstance(command, MultiSetCommand):
        out += b"mset %d%s\r\n" % (
            len(command.items), b" noreply" if command.noreply else b""
        )
        for item in command.items:
            out += b"%s %d %d %d" % (
                item.key, item.flags, int(item.exptime), len(item.value)
            )
            if item.cost:
                out += b" cost %d" % item.cost
            if item.version:
                out += b" version %d" % item.version
            out += CRLF
            out += item.value
            out += CRLF
        return
    if isinstance(command, StoreCommand):
        out += b"%s %s %d %d %d" % (
            command.verb.encode(),
            command.key,
            command.flags,
            int(command.exptime),
            len(command.value),
        )
        if command.verb == "cas":
            out += b" %d" % (command.cas_unique or 0)
        if command.cost:
            out += b" cost %d" % command.cost
        if command.version:
            out += b" version %d" % command.version
        if command.noreply:
            out += b" noreply"
        out += CRLF
        out += command.value
        out += CRLF
        return
    if isinstance(command, DigestCommand):
        out += b"digest %d\r\n" % command.nslots
        return
    if isinstance(command, KeyListCommand):
        out += b"keys %d %d\r\n" % (command.slot, command.nslots)
        return
    if isinstance(command, IncrCommand):
        verb = b"decr" if command.negative else b"incr"
        out += b"%s %s %d" % (verb, command.key, command.delta)
        if command.noreply:
            out += b" noreply"
        out += CRLF
        return
    if isinstance(command, DeleteCommand):
        out += b"delete " + command.key
        if command.noreply:
            out += b" noreply"
        out += CRLF
        return
    if isinstance(command, TouchCommand):
        out += b"touch %s %d" % (command.key, int(command.exptime))
        if command.noreply:
            out += b" noreply"
        out += CRLF
        return
    if isinstance(command, FlushCommand):
        out += b"flush_all noreply" if command.noreply else b"flush_all"
        out += CRLF
        return
    if isinstance(command, StatsCommand):
        if command.subcommand:
            out += b"stats " + command.subcommand.encode()
        else:
            out += b"stats"
        out += CRLF
        return
    if isinstance(command, QuitCommand):
        out += b"quit" + CRLF
        return
    raise TypeError(f"cannot encode {type(command).__name__}")


def encode_command(command: Command) -> bytes:
    """Client side: a command to wire bytes."""
    out = bytearray()
    encode_command_into(out, command)
    return bytes(out)


def encode_response_into(out: bytearray, response) -> None:
    """Server side: append one response's wire bytes to ``out``.

    The dispatcher shares one ``out`` buffer across every response of a
    pipelined batch, so serializing N commands allocates one buffer per
    flush instead of one intermediate ``bytes`` per command.
    """
    if isinstance(response, GetResponse):
        for value in response.values:
            data = value.value
            if value.cas_unique is not None:
                out += b"VALUE %s %d %d %d\r\n" % (
                    value.key, value.flags, len(data), value.cas_unique
                )
            else:
                out += b"VALUE %s %d %d\r\n" % (value.key, value.flags, len(data))
            out += data
            out += CRLF
        out += b"END\r\n"
    elif isinstance(response, MultiSetResponse):
        out += b"MSET"
        for status in response.statuses:
            out += b" "
            out += status
        out += CRLF
    elif isinstance(response, DigestResponse):
        out += b"DIGEST %d\r\n" % response.nslots
        for slot, count, digest in response.slots:
            out += b"SLOT %d %d %d\r\n" % (slot, count, digest)
        out += b"END\r\n"
    elif isinstance(response, KeyListResponse):
        out += b"KEYS %d\r\n" % len(response.entries)
        for key, version, cost, flags, exptime in response.entries:
            out += b"KEY %s %d %d %d %s\r\n" % (
                key, version, cost, flags, repr(exptime).encode()
            )
        out += b"END\r\n"
    elif isinstance(response, SimpleResponse):
        out += response.line
        out += CRLF
    elif isinstance(response, NumberResponse):
        out += b"%d\r\n" % response.value
    elif isinstance(response, StatsResponse):
        for name, value in response.stats:
            out += b"STAT %s %s\r\n" % (name.encode(), str(value).encode())
        out += b"END\r\n"
    else:
        raise TypeError(f"cannot encode {type(response).__name__}")


def encode_response(response) -> bytes:
    """Server side: a response object to wire bytes."""
    out = bytearray()
    encode_response_into(out, response)
    return bytes(out)


class ResponseParser:
    """Incremental response parser for the client side.

    Scans the receive buffer in place — no per-attempt snapshot copy of
    the whole buffer; only complete lines and value payloads are sliced
    out as ``bytes``.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def try_parse(self):
        """One complete response, or ``None`` if more bytes are needed."""
        buffer = self._buffer
        newline = buffer.find(CRLF)
        if newline < 0:
            return None
        first = bytes(buffer[:newline])
        if first.startswith(b"VALUE") or first == b"END":
            return self._try_parse_get()
        if first.startswith(b"STAT"):
            return self._try_parse_stats()
        if first.startswith(b"DIGEST "):
            return self._try_parse_digest(first, newline)
        if first.startswith(b"KEYS "):
            return self._try_parse_keys(first, newline)
        del buffer[: newline + 2]
        if first == b"MSET" or first.startswith(b"MSET "):
            return MultiSetResponse(statuses=tuple(first.split()[1:]))
        if first.isdigit():
            return NumberResponse(value=int(first))
        return SimpleResponse(first)

    def _try_parse_get(self):
        buffer = self._buffer
        values = []
        pos = 0
        while True:
            newline = buffer.find(CRLF, pos)
            if newline < 0:
                return None
            line = bytes(buffer[pos:newline])
            pos = newline + 2
            if line == b"END":
                del buffer[:pos]
                return GetResponse(values=tuple(values))
            if not line.startswith(b"VALUE "):
                raise ProtocolError(f"unexpected line in GET response: {line!r}")
            parts = line.split()
            if len(parts) not in (4, 5):
                raise ProtocolError(f"bad VALUE header: {line!r}")
            nbytes = _parse_int(parts[3], "bytes")
            cas_unique = _parse_int(parts[4], "cas") if len(parts) == 5 else None
            if len(buffer) < pos + nbytes + 2:
                return None
            data = bytes(buffer[pos : pos + nbytes])
            if buffer[pos + nbytes : pos + nbytes + 2] != CRLF:
                raise ProtocolError("bad data terminator in GET response")
            pos += nbytes + 2
            values.append(
                ValueResponse(
                    key=parts[1],
                    flags=_parse_int(parts[2], "flags"),
                    value=data,
                    cas_unique=cas_unique,
                )
            )

    def _try_parse_digest(self, first: bytes, newline: int):
        buffer = self._buffer
        header = first.split()
        if len(header) != 2:
            raise ProtocolError(f"bad DIGEST header: {first!r}")
        nslots = _parse_int(header[1], "nslots")
        slots = []
        pos = newline + 2
        while True:
            end = buffer.find(CRLF, pos)
            if end < 0:
                return None
            line = bytes(buffer[pos:end])
            pos = end + 2
            if line == b"END":
                del buffer[:pos]
                return DigestResponse(nslots=nslots, slots=tuple(slots))
            parts = line.split()
            if len(parts) != 4 or parts[0] != b"SLOT":
                raise ProtocolError(f"unexpected line in DIGEST response: {line!r}")
            slots.append((
                _parse_int(parts[1], "slot"),
                _parse_int(parts[2], "count"),
                _parse_int(parts[3], "hash"),
            ))

    def _try_parse_keys(self, first: bytes, newline: int):
        buffer = self._buffer
        header = first.split()
        if len(header) != 2:
            raise ProtocolError(f"bad KEYS header: {first!r}")
        entries = []
        pos = newline + 2
        while True:
            end = buffer.find(CRLF, pos)
            if end < 0:
                return None
            line = bytes(buffer[pos:end])
            pos = end + 2
            if line == b"END":
                del buffer[:pos]
                return KeyListResponse(entries=tuple(entries))
            parts = line.split()
            if len(parts) != 6 or parts[0] != b"KEY":
                raise ProtocolError(f"unexpected line in KEYS response: {line!r}")
            try:
                exptime = float(parts[5])
            except ValueError:
                raise ProtocolError(f"bad exptime: {parts[5]!r}") from None
            entries.append((
                parts[1],
                _parse_int(parts[2], "version"),
                _parse_int(parts[3], "cost"),
                _parse_int(parts[4], "flags"),
                exptime,
            ))

    def _try_parse_stats(self):
        buffer = self._buffer
        stats = []
        pos = 0
        while True:
            newline = buffer.find(CRLF, pos)
            if newline < 0:
                return None
            line = bytes(buffer[pos:newline])
            pos = newline + 2
            if line == b"END":
                del buffer[:pos]
                return StatsResponse(stats=stats)
            if not line.startswith(b"STAT "):
                raise ProtocolError(f"unexpected line in STATS response: {line!r}")
            _, name, value = line.split(b" ", 2)
            stats.append((name.decode(), value.decode()))
