"""Wire-format tests: parsing, encoding, framing, and malformed input."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol import (
    DeleteCommand,
    FlushCommand,
    GetCommand,
    GetResponse,
    ProtocolError,
    QuitCommand,
    RequestParser,
    ResponseParser,
    SimpleResponse,
    StatsCommand,
    StoreCommand,
    TouchCommand,
    ValueResponse,
    encode_command,
    encode_response,
)
from repro.protocol.text import MAX_KEY_LENGTH, _validate_key


def parse_one(data: bytes):
    parser = RequestParser()
    parser.feed(data)
    commands = list(parser)
    assert len(commands) == 1, commands
    return commands[0]


class TestRequestParsing:
    def test_get_single_key(self):
        cmd = parse_one(b"get mykey\r\n")
        assert cmd == GetCommand(keys=(b"mykey",))

    def test_get_multiple_keys(self):
        cmd = parse_one(b"get a b c\r\n")
        assert cmd.keys == (b"a", b"b", b"c")

    def test_set_without_cost(self):
        cmd = parse_one(b"set k 1 0 5\r\nhello\r\n")
        assert cmd == StoreCommand(
            verb="set", key=b"k", flags=1, exptime=0.0, value=b"hello"
        )
        assert cmd.cost == 0

    def test_set_with_cost_extension(self):
        """The paper's Section 4.3 protocol change."""
        cmd = parse_one(b"set query:42 0 0 6 cost 240\r\nresult\r\n")
        assert cmd.cost == 240
        assert cmd.value == b"result"

    def test_set_with_cost_and_noreply(self):
        cmd = parse_one(b"set k 0 0 2 cost 15 noreply\r\nhi\r\n")
        assert cmd.cost == 15
        assert cmd.noreply

    def test_add_and_replace_verbs(self):
        assert parse_one(b"add k 0 0 1\r\nx\r\n").verb == "add"
        assert parse_one(b"replace k 0 0 1\r\nx\r\n").verb == "replace"

    def test_binary_safe_values(self):
        payload = bytes(range(256))
        cmd = parse_one(b"set k 0 0 256\r\n" + payload + b"\r\n")
        assert cmd.value == payload

    def test_value_containing_crlf(self):
        payload = b"line1\r\nline2"
        cmd = parse_one(b"set k 0 0 %d\r\n" % len(payload) + payload + b"\r\n")
        assert cmd.value == payload

    def test_delete(self):
        assert parse_one(b"delete k\r\n") == DeleteCommand(key=b"k")
        assert parse_one(b"delete k noreply\r\n").noreply

    def test_touch(self):
        cmd = parse_one(b"touch k 60\r\n")
        assert cmd == TouchCommand(key=b"k", exptime=60.0)

    def test_flush_and_stats_and_quit(self):
        assert parse_one(b"flush_all\r\n") == FlushCommand(noreply=False)
        assert parse_one(b"stats\r\n") == StatsCommand()
        assert parse_one(b"quit\r\n") == QuitCommand()

    def test_multiple_pipelined_commands(self):
        parser = RequestParser()
        parser.feed(b"get a\r\nset b 0 0 1\r\nx\r\nget c\r\n")
        commands = list(parser)
        assert [type(c).__name__ for c in commands] == [
            "GetCommand",
            "StoreCommand",
            "GetCommand",
        ]

    def test_incremental_byte_at_a_time(self):
        parser = RequestParser()
        data = b"set k 0 0 5 cost 7\r\nhello\r\nget k\r\n"
        commands = []
        for i in range(len(data)):
            parser.feed(data[i : i + 1])
            commands.extend(parser)
        assert len(commands) == 2
        assert commands[0].cost == 7
        assert commands[0].value == b"hello"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "line",
        [
            b"bogus k\r\n",
            b"get\r\n",
            b"set k 0 0\r\n",
            b"set k x 0 5\r\nhello\r\n",
            b"set k 0 0 -3\r\n",
            b"set k 0 0 5 cost\r\n",
            b"set k 0 0 5 cost -1\r\nhello\r\n",
            b"set k 0 0 5 unexpected\r\nhello\r\n",
            b"delete\r\n",
            b"\r\n",
            b"get " + b"x" * 251 + b"\r\n",
            b"get bad\x01key\r\n",
            b"get two words extra\x7f\r\n",
        ],
    )
    def test_rejected(self, line):
        parser = RequestParser()
        parser.feed(line)
        with pytest.raises(ProtocolError):
            list(parser)

    def test_key_byte_set_is_pinned(self):
        # exactly space, the C0 controls and DEL are refused, anywhere in
        # the key; every other byte value (0x80-0xff included) is legal
        refused = set(range(0x21)) | {0x7F}
        for byte in range(256):
            for key in (bytes([byte]), b"a" + bytes([byte]) + b"z"):
                if byte in refused:
                    with pytest.raises(ProtocolError):
                        _validate_key(key)
                else:
                    assert _validate_key(key) is key

    def test_key_length_bounds(self):
        with pytest.raises(ProtocolError):
            _validate_key(b"")
        assert _validate_key(b"k" * MAX_KEY_LENGTH) == b"k" * MAX_KEY_LENGTH
        with pytest.raises(ProtocolError):
            _validate_key(b"k" * (MAX_KEY_LENGTH + 1))

    def test_bad_data_terminator(self):
        parser = RequestParser()
        parser.feed(b"set k 0 0 5\r\nhelloXX")
        with pytest.raises(ProtocolError):
            list(parser)


class TestCommandRoundTrip:
    @pytest.mark.parametrize(
        "command",
        [
            GetCommand(keys=(b"a",)),
            GetCommand(keys=(b"a", b"b")),
            StoreCommand(verb="set", key=b"k", flags=3, exptime=60.0,
                         value=b"v" * 100, cost=240),
            StoreCommand(verb="add", key=b"k", flags=0, exptime=0.0, value=b""),
            StoreCommand(verb="replace", key=b"k", flags=0, exptime=0.0,
                         value=b"x", noreply=True),
            DeleteCommand(key=b"k"),
            DeleteCommand(key=b"k", noreply=True),
            TouchCommand(key=b"k", exptime=30.0),
            FlushCommand(noreply=False),
            StatsCommand(),
            QuitCommand(),
        ],
    )
    def test_encode_then_parse(self, command):
        assert parse_one(encode_command(command)) == command


class TestResponseRoundTrip:
    def test_simple_responses(self):
        for line in (b"STORED", b"NOT_STORED", b"DELETED", b"NOT_FOUND", b"OK"):
            parser = ResponseParser()
            parser.feed(encode_response(SimpleResponse(line)))
            assert parser.try_parse() == SimpleResponse(line)

    def test_get_response_with_values(self):
        response = GetResponse(
            values=(
                ValueResponse(key=b"a", flags=1, value=b"hello"),
                ValueResponse(key=b"b", flags=0, value=b"\r\nbinary\x00"),
            )
        )
        parser = ResponseParser()
        parser.feed(encode_response(response))
        assert parser.try_parse() == response

    def test_empty_get_response(self):
        parser = ResponseParser()
        parser.feed(b"END\r\n")
        assert parser.try_parse() == GetResponse(values=())

    def test_incomplete_returns_none(self):
        parser = ResponseParser()
        parser.feed(b"VALUE a 0 12\r\nhal")
        assert parser.try_parse() is None
        parser.feed(b"f-missing\r\nEND\r\n")
        result = parser.try_parse()
        assert result.values[0].value == b"half-missing"


@given(
    value=st.binary(max_size=200),
    cost=st.integers(0, 65_535),
    flags=st.integers(0, 2**16 - 1),
    chunks=st.integers(1, 7),
)
@settings(max_examples=150, deadline=None)
def test_store_command_roundtrip_any_value_any_chunking(value, cost, flags, chunks):
    """Property: SET survives encode->chunked feed->parse for any payload."""
    command = StoreCommand(
        verb="set", key=b"some-key", flags=flags, exptime=0.0,
        value=value, cost=cost,
    )
    wire = encode_command(command)
    parser = RequestParser()
    parsed = []
    step = max(1, len(wire) // chunks)
    for i in range(0, len(wire), step):
        parser.feed(wire[i : i + step])
        parsed.extend(parser)
    assert parsed == [command]
