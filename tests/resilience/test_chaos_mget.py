"""Parser resync + version skew for the batched wire protocol.

MGET/MSET frames are bigger than any single command the proxy used to
chop, so the incremental parsers get fresh adversaries — chunks split
mid-frame (must reassemble exactly) and chunks with the tail bytes gone
(must error or time out, never silently mis-answer).  The version-skew
check runs an old client's wire shape against a new server over real
sockets: the plain multi-key GET line and per-key SETs still work.
"""

import asyncio

import pytest

from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.aio.backoff import NO_RETRY, RetryPolicy
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.protocol.commands import STORED, GetCommand, StoreCommand
from repro.protocol.binary import (
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    OP_MGET,
    BinaryParser,
    BinaryStoreServer,
    pack_mget_value,
    request,
    unpack_mget_reply_value,
)
from repro.resilience import ChaosProxy, FaultSchedule


def fresh_store(limit=4 * 1024 * 1024):
    return KVStore(
        memory_limit=limit, slab_size=64 * 1024, policy_factory=GDWheelPolicy
    )


def run(coro):
    return asyncio.run(coro)


ITEMS = [(b"key-%03d" % i, b"value-%03d" % i, i + 1) for i in range(32)]
KEYS = [key for key, _, _ in ITEMS]


class TestTextResyncUnderChaos:
    def test_partial_writes_reassemble_batched_frames(self):
        # every chunk split in two mid-stream: MSET item bodies and the
        # multi-VALUE MGET reply must come back bit-exact
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=8).always(partial_write_prob=1.0)
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(*proxy.address, retry=NO_RETRY)
                    assert await client.set_many(ITEMS) == len(ITEMS)
                    found = await client.get_many(KEYS)
                    assert found == {key: value for key, value, _ in ITEMS}
                    assert proxy.fault_counts["partial_write"] >= 1
                    await client.aclose()

        run(main())

    def test_truncated_mget_frames_fail_loudly(self):
        # inbound truncation chops MGET/MSET frames client->server: the
        # server may never mis-parse the stream into a wrong answer; the
        # client must surface an error or time out
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=13).always(
                    truncate_prob=1.0, direction="in"
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=0.2,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                    )
                    with pytest.raises(Exception):
                        for _ in range(25):
                            await client.set_many(ITEMS)
                            await client.get_many(KEYS)
                    assert proxy.fault_counts["truncate"] >= 1
                    await client.aclose()

        run(main())

    def test_truncated_mget_replies_fail_loudly(self):
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                schedule = FaultSchedule(seed=17).always(
                    truncate_prob=1.0, direction="out"
                )
                async with ChaosProxy(*server.address, schedule) as proxy:
                    client = AsyncStoreClient(
                        *proxy.address, timeout=0.2,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                    )
                    with pytest.raises(Exception):
                        for _ in range(25):
                            await client.set_many(ITEMS)
                            found = await client.get_many(KEYS)
                            # any reply that does parse must be correct
                            for key, value in found.items():
                                assert value == dict(
                                    (k, v) for k, v, _ in ITEMS
                                )[key]
                    assert proxy.fault_counts["truncate"] >= 1
                    await client.aclose()

        run(main())


class TestBinaryResync:
    def test_mget_frame_byte_at_a_time(self):
        store = fresh_store()
        store.set(b"a", b"1", cost=1)
        store.set(b"b", b"2", cost=1)
        server = BinaryStoreServer(store)
        parser = BinaryParser(MAGIC_REQUEST)
        wire = request(OP_MGET, value=pack_mget_value([b"a", b"b"])).pack()
        out = b""
        for i in range(len(wire)):
            out, keep_open = server.handle_bytes(parser, wire[i : i + 1])
            assert keep_open
            if i < len(wire) - 1:
                assert out == b""  # nothing until the frame completes
        reply_parser = BinaryParser(MAGIC_RESPONSE)
        reply_parser.feed(out)
        reply = reply_parser.try_parse()
        assert unpack_mget_reply_value(reply.value) == [
            (b"a", 0, b"1"), (b"b", 0, b"2"),
        ]

    def test_split_frame_then_next_frame(self):
        # a frame cut mid-value stalls (no output), completes on the next
        # feed, and the parser is clean for the frame after it
        store = fresh_store()
        store.set(b"k", b"v", cost=1)
        server = BinaryStoreServer(store)
        parser = BinaryParser(MAGIC_REQUEST)
        first = request(OP_MGET, value=pack_mget_value([b"k"])).pack()
        second = request(OP_MGET, value=pack_mget_value([b"k"])).pack()
        out, _ = server.handle_bytes(parser, first[:30])
        assert out == b""
        out, _ = server.handle_bytes(parser, first[30:] + second)
        reply_parser = BinaryParser(MAGIC_RESPONSE)
        reply_parser.feed(out)
        replies = list(reply_parser)
        assert len(replies) == 2
        for reply in replies:
            assert unpack_mget_reply_value(reply.value) == [(b"k", 0, b"v")]


class TestVersionSkewMatrix:
    def test_old_client_new_server_over_tcp(self):
        # old client wire shape: plain multi-key GET + per-key SETs
        async def main():
            async with AsyncTCPStoreServer(fresh_store()) as server:
                client = AsyncStoreClient(*server.address, retry=NO_RETRY)
                stored = await client.execute([
                    StoreCommand(verb="set", key=key, flags=0, exptime=0,
                                 value=value, cost=cost)
                    for key, value, cost in ITEMS
                ])
                assert sum(1 for r in stored if r == STORED) == len(ITEMS)
                (response,) = await client.execute(
                    [GetCommand(keys=tuple(KEYS))]
                )
                found = {v.key: v.value for v in response.values}
                assert found == {key: value for key, value, _ in ITEMS}
                await client.aclose()

        run(main())
