"""Batched wire protocol: MGET/MSET framing and dispatch."""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore, SimClock
from repro.kvstore.errors import OutOfMemoryError
from repro.obs import MetricsRegistry
from repro.protocol import (
    CostAwareClient,
    LoopbackConnection,
    StoreServer,
)
from repro.protocol.binary import (
    MAX_BATCH_ITEMS,
    OP_MGET,
    BinaryClient,
    BinaryStoreServer,
    STATUS_INVALID_ARGUMENTS,
    STATUS_OK,
    STATUS_VALUE_TOO_LARGE,
    pack_mget_reply_value,
    pack_mget_value,
    pack_mset_reply_value,
    pack_mset_value,
    request,
    unpack_mget_reply_value,
    unpack_mget_value,
    unpack_mset_reply_value,
    unpack_mset_value,
)
from repro.protocol.commands import (
    GetCommand,
    GetResponse,
    MultiGetCommand,
    MultiSetCommand,
    MultiSetResponse,
    ProtocolError,
    SimpleResponse,
    StoreCommand,
)
from repro.protocol.text import (
    RequestParser,
    ResponseParser,
    encode_command,
    encode_response,
)


def fresh_store(limit=1024 * 1024, slab=64 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=slab, policy_factory=GDWheelPolicy,
        clock=SimClock(),
    )


def parse_all(payload: bytes):
    parser = RequestParser()
    parser.feed(payload)
    return list(parser)


MSET_WIRE = (
    b"mset 2\r\n"
    b"a 1 0 2 cost 7\r\nAA\r\n"
    b"b 0 0 3\r\nBBB\r\n"
)


class TestTextFraming:
    def test_mget_parses_to_one_command(self):
        (command,) = parse_all(b"mget a b c\r\n")
        assert command == MultiGetCommand(keys=(b"a", b"b", b"c"))

    def test_mget_trailing_trace_token_is_stripped(self):
        (command,) = parse_all(b"mget a b tctx:00ff\r\n")
        assert command.keys == (b"a", b"b")
        assert command.trace_token == b"tctx:00ff"

    def test_mget_single_token_is_a_key_not_a_context(self):
        # the backward-compat rule: at least one real key must remain
        (command,) = parse_all(b"mget tctx:00ff\r\n")
        assert command.keys == (b"tctx:00ff",)
        assert command.trace_token is None

    def test_mset_parses_items_with_costs(self):
        (command,) = parse_all(MSET_WIRE)
        assert isinstance(command, MultiSetCommand)
        assert [i.key for i in command.items] == [b"a", b"b"]
        assert [i.value for i in command.items] == [b"AA", b"BBB"]
        assert [i.cost for i in command.items] == [7, 0]
        assert command.items[0].flags == 1
        assert not command.noreply

    def test_mset_noreply(self):
        (command,) = parse_all(
            b"mset 1 noreply\r\nk 0 0 1\r\nv\r\n"
        )
        assert command.noreply

    def test_mset_count_out_of_range(self):
        parser = RequestParser()
        parser.feed(b"mset 4097\r\n")
        with pytest.raises(ProtocolError):
            list(parser)

    def test_partial_feeds_resync(self):
        # byte-at-a-time: nothing emerges until the frame completes, then
        # the parser is clean for the next command
        wire = MSET_WIRE + b"mget a\r\n"
        parser = RequestParser()
        commands = []
        for i in range(len(wire)):
            parser.feed(wire[i : i + 1])
            commands.extend(parser)
        assert len(commands) == 2
        assert isinstance(commands[0], MultiSetCommand)
        assert commands[1] == MultiGetCommand(keys=(b"a",))

    def test_bad_mset_item_line_resyncs_parser(self):
        parser = RequestParser()
        parser.feed(b"mset 2\r\nnot-enough-tokens\r\n")
        with pytest.raises(ProtocolError):
            list(parser)
        # the aborted batch must not swallow the next command
        parser.feed(b"mget a\r\n")
        assert list(parser) == [MultiGetCommand(keys=(b"a",))]

    def test_encode_roundtrip_mget(self):
        command = MultiGetCommand(keys=(b"x", b"y"), trace_token=b"tctx:01")
        (parsed,) = parse_all(encode_command(command))
        assert parsed == command

    def test_encode_roundtrip_mset(self):
        command = MultiSetCommand(
            items=(
                StoreCommand(verb="set", key=b"k1", flags=3, exptime=0,
                             value=b"v1", cost=9),
                StoreCommand(verb="set", key=b"k2", flags=0, exptime=0,
                             value=b"", cost=0),
            ),
        )
        (parsed,) = parse_all(encode_command(command))
        assert parsed == command

    def test_mset_response_roundtrip(self):
        response = MultiSetResponse(statuses=(b"STORED", b"TOO_LARGE", b"OOM"))
        parser = ResponseParser()
        parser.feed(encode_response(response))
        parsed = parser.try_parse()
        assert parsed == response
        assert parsed.stored == 1


class TestTextDispatch:
    def test_mget_returns_only_hits(self):
        server = StoreServer(fresh_store())
        server.store.set(b"a", b"1", cost=1)
        server.store.set(b"c", b"3", cost=1)
        response, _ = server.dispatch(MultiGetCommand(keys=(b"a", b"b", b"c")))
        assert isinstance(response, GetResponse)
        assert [(v.key, v.value) for v in response.values] == [
            (b"a", b"1"), (b"c", b"3"),
        ]

    def test_mset_per_key_status_attribution(self):
        # slab=1 KiB: the oversized value fails alone, neighbours store
        server = StoreServer(fresh_store(slab=1024))
        command = MultiSetCommand(
            items=(
                StoreCommand(verb="set", key=b"ok1", flags=0, exptime=0,
                             value=b"v", cost=1),
                StoreCommand(verb="set", key=b"big", flags=0, exptime=0,
                             value=b"x" * 4096, cost=1),
                StoreCommand(verb="set", key=b"ok2", flags=0, exptime=0,
                             value=b"v", cost=1),
            ),
        )
        response, keep_open = server.dispatch(command)
        assert keep_open is True
        assert response.statuses == (b"STORED", b"TOO_LARGE", b"STORED")
        assert server.store.get(b"ok1") is not None
        assert server.store.get(b"big") is None

    def test_mset_oom_status(self):
        server = StoreServer(fresh_store())
        server.store.set_many = lambda entries: [
            OutOfMemoryError("no slab") for _ in entries
        ]
        response, _ = server.dispatch(
            MultiSetCommand(
                items=(
                    StoreCommand(verb="set", key=b"k", flags=0, exptime=0,
                                 value=b"v", cost=1),
                ),
            )
        )
        assert response.statuses == (b"OOM",)

    def test_mset_noreply_suppresses_response(self):
        connection = LoopbackConnection(StoreServer(fresh_store()))
        out = connection.send(
            b"mset 1 noreply\r\nk 0 0 1\r\nv\r\nget k\r\n"
        )
        assert out.startswith(b"VALUE k")  # no MSET line before it

    def test_mset_is_one_shed_unit(self):
        # an expired deadline answers the whole frame with ONE busy line
        engine = StoreServer(fresh_store())
        parser = RequestParser()
        out, keep_open = engine.handle_bytes(
            parser, MSET_WIRE, budget=0.0, shed_reason="deadline"
        )
        assert out == b"SERVER_ERROR busy\r\n"
        assert keep_open is True
        assert len(engine.store) == 0

    def test_mget_exptime_relative_conversion(self):
        # mset exptime is relative seconds on the wire, like plain set
        store = fresh_store()
        server = StoreServer(store)
        server.dispatch(
            MultiSetCommand(
                items=(
                    StoreCommand(verb="set", key=b"k", flags=0, exptime=10,
                                 value=b"v", cost=1),
                ),
            )
        )
        assert store.get(b"k") is not None
        store.clock.advance(11)
        assert store.get(b"k") is None


class TestTextNegotiation:
    def test_new_client_new_server(self):
        client = CostAwareClient.loopback(StoreServer(fresh_store()))
        assert client.set_many([(b"a", b"1", 2), (b"b", b"2", 3)]) == 2
        assert client.get_many([b"a", b"b", b"ghost"]) == {
            b"a": b"1", b"b": b"2",
        }

    def test_batch_calls_reach_the_server_as_one_frame(self):
        # the server's per-command histograms count frames: N keys in one
        # call must land as one mget / mset sample and no per-key ones
        store = fresh_store()
        client = CostAwareClient.loopback(
            StoreServer(store, registry=MetricsRegistry())
        )
        keys = [b"k%d" % i for i in range(8)]
        assert client.set_many([(k, b"v", 1) for k in keys]) == len(keys)
        assert len(client.get_many(keys + [b"ghost"])) == len(keys)
        metrics = client.stats("metrics")
        assert metrics["cmd_latency_us{cmd=mset}_count"] == "1"
        assert metrics["cmd_latency_us{cmd=mget}_count"] == "1"
        assert "cmd_latency_us{cmd=set}_count" not in metrics
        assert "cmd_latency_us{cmd=get}_count" not in metrics

    def test_old_client_new_server(self):
        # a client that never sends mget still works against a batched
        # server — the plain multi-key GET path is untouched
        client = CostAwareClient.loopback(StoreServer(fresh_store()))
        assert client.set(b"a", b"1", cost=2)
        response = client._roundtrip(GetCommand(keys=(b"a", b"ghost")))
        assert [(v.key, v.value) for v in response.values] == [(b"a", b"1")]


class TestBinaryCodecs:
    def test_mget_value_roundtrip(self):
        keys = (b"a", b"longer-key", b"")
        assert unpack_mget_value(pack_mget_value(keys)) == keys

    def test_mget_reply_roundtrip_skips_misses(self):
        class Item:
            def __init__(self, flags, value):
                self.flags, self.value = flags, value

        packed = pack_mget_reply_value(
            [b"a", b"b", b"c"], [Item(1, b"v1"), None, Item(0, b"")]
        )
        assert unpack_mget_reply_value(packed) == [
            (b"a", 1, b"v1"), (b"c", 0, b""),
        ]

    def test_mset_value_roundtrip(self):
        # pack takes (key, value, cost, exptime, flags); unpack yields
        # the wire's (key, flags, exptime, cost, value) field order
        items = [(b"k1", b"v1", 7, 60, 1), (b"k2", b"", 0, 0, 0)]
        assert unpack_mset_value(pack_mset_value(items)) == [
            (b"k1", 1, 60, 7, b"v1"), (b"k2", 0, 0, 0, b""),
        ]

    def test_mset_reply_roundtrip(self):
        statuses = (STATUS_OK, STATUS_VALUE_TOO_LARGE, STATUS_OK)
        assert unpack_mset_reply_value(pack_mset_reply_value(statuses)) == statuses

    def test_truncation_raises(self):
        class Item:
            flags = 0
            value = b"v"

        cases = [
            (pack_mget_value((b"abc", b"de")), unpack_mget_value),
            (pack_mget_reply_value([b"k"], [Item()]), unpack_mget_reply_value),
            (pack_mset_value([(b"k", b"v", 1, 0, 0)]), unpack_mset_value),
            (pack_mset_reply_value((STATUS_OK,)), unpack_mset_reply_value),
        ]
        for packed, unpack in cases:
            for cut in range(1, len(packed)):
                with pytest.raises(ProtocolError):
                    unpack(packed[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_mget_value(pack_mget_value((b"a",)) + b"JUNK")
        with pytest.raises(ProtocolError):
            unpack_mset_value(pack_mset_value([(b"k", b"v", 0, 0, 0)]) + b"X")

    def test_batch_size_cap(self):
        import struct

        huge = struct.pack(">I", MAX_BATCH_ITEMS + 1)
        with pytest.raises(ProtocolError):
            unpack_mget_value(huge)
        with pytest.raises(ProtocolError):
            unpack_mset_value(huge)


class TestBinaryDispatch:
    def test_get_many_set_many(self):
        client = BinaryClient(BinaryStoreServer(fresh_store()))
        statuses = client.set_many(
            [(b"a", b"1", 2, 0, 0), (b"b", b"2", 3, 0, 5)]
        )
        assert statuses == (STATUS_OK, STATUS_OK)
        assert client.get_many([b"a", b"b", b"ghost"]) == {
            b"a": b"1", b"b": b"2",
        }

    def test_set_many_status_attribution(self):
        client = BinaryClient(BinaryStoreServer(fresh_store(slab=1024)))
        statuses = client.set_many(
            [(b"ok", b"v", 1, 0, 0), (b"big", b"x" * 4096, 1, 0, 0)]
        )
        assert statuses == (STATUS_OK, STATUS_VALUE_TOO_LARGE)

    def test_cost_lands_in_store(self):
        store = fresh_store()
        client = BinaryClient(BinaryStoreServer(store))
        client.set_many([(b"k", b"v", 123, 0, 0)])
        assert store.hashtable.find(b"k").cost == 123

    def test_malformed_mget_body_answers_invalid_arguments(self):
        server = BinaryStoreServer(fresh_store())
        reply, keep_open = server.dispatch(
            request(OP_MGET, value=b"\x00\x00\x00\x02\x00\x05ab")
        )
        assert reply.status == STATUS_INVALID_ARGUMENTS
        assert keep_open is True
