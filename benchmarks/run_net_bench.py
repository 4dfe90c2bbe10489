"""Net throughput A/Bs: wire batching, and the transport overhaul.

Two loopback serving experiments against live asyncio servers, both
written to ``BENCH_net.json``:

1. **Batching A/B** (``results``): ``multi_get`` ops/s in two wire modes
   over a (batch size x pipeline depth) sweep:

   * ``perkey`` — one ``get <key>`` frame per key, pipelined into one
     round trip through ``AsyncStoreClient.execute``.  N keys cost N
     parses, N dispatches, N response encodes (the pre-MGET wire shape).
   * ``mget`` — ``AsyncStoreClient.get_many``: one first-class MGET
     frame for the whole batch — one parse, one vectored store dispatch under one lock
     acquisition, one response encode into a shared buffer.

2. **Transport A/B** (``transport_ab``): the live BufferedProtocol stack
   (zero-copy receive, future-per-slot completion, callback
   backpressure) vs the frozen pre-overhaul streams stack
   (``frozen_streams_transport.py``) at batch=1 / depth=4 — the shape
   where per-request transport constant factors dominate and batching
   can't hide them.  Before timing, identical pipelined request bytes
   are sent to both servers over raw sockets and the raw response bytes
   are asserted **byte-identical** — a fast wrong answer is not a
   speedup.  Rounds are interleaved (old, new, old, new, ...) and the
   best round per arm is compared, so drift hits both arms equally.

Method
------
One event loop hosts both the server and the closed-loop drivers, so the
two arms pay identical scheduling overhead and each comparison isolates
exactly one layer's cost.  The store is warmed with the full key
universe first (~100% hits; serving cost, not eviction, is measured).
Each timed phase runs ``pipeline_depth`` concurrent workers, each
issuing one ``get_many`` batch at a time (closed loop: offered load
adapts to service rate).

Both ratios are CPU-bound work on both sides of one core, so unlike the
multi-process scaling benchmarks they are meaningful even on a 1-CPU
machine — the slower arm burns strictly more cycles per delivered
value.  ``environment.cpus`` is stamped regardless.

Run it::

    PYTHONPATH=src python benchmarks/run_net_bench.py --out BENCH_net.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from functools import partial
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from bench_env import environment_facts, net_config
from frozen_streams_transport import FrozenStreamsClient, FrozenStreamsServer
from repro.aio import AsyncStoreClient, AsyncTCPStoreServer
from repro.aio.loops import install as install_loop_policy
from repro.aio.loops import uvloop_available
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.obs.histogram import LatencyHistogram
from repro.protocol.commands import GetCommand, GetResponse, unexpected_response

DEFAULT_BATCH_SIZES = (4, 16, 64)
DEFAULT_PIPELINE_DEPTHS = (1, 4)
DEFAULT_OPS_PER_MODE = 24_000
DEFAULT_KEYS = 2_000
DEFAULT_VALUE_SIZE = 64
MEMORY_LIMIT = 32 * 1024 * 1024
SLAB_SIZE = 256 * 1024

#: transport A/B shape: the ISSUE's target point — batch=1 strips away
#: batching amortization so per-request transport cost is the signal
DEFAULT_TRANSPORT_OPS = 20_000
DEFAULT_TRANSPORT_ROUNDS = 3
TRANSPORT_DEPTH = 4
TRANSPORT_BATCH = 1

#: wire modes measured, in run order (baseline first)
MODES = ("perkey", "mget")

#: one batch fetch: a chunk of keys in, ``{key: value}`` of the hits out
Fetch = Callable[[List[bytes]], Awaitable[Dict[bytes, bytes]]]


def _keys(num_keys: int) -> List[bytes]:
    return [b"key%08d" % i for i in range(num_keys)]


def _chunks(keys: List[bytes], batch: int, total_ops: int) -> List[List[bytes]]:
    """A deterministic round-robin schedule of key batches covering
    ``total_ops`` individual GETs."""
    out = []
    position = 0
    issued = 0
    while issued < total_ops:
        chunk = [keys[(position + i) % len(keys)] for i in range(batch)]
        position = (position + batch * 7 + 1) % len(keys)
        out.append(chunk)
        issued += batch
    return out


async def _warm(client: AsyncStoreClient, keys: List[bytes],
                value_size: int) -> None:
    value = b"v" * value_size
    for start in range(0, len(keys), 64):
        await client.set_many(
            [(key, value, 1) for key in keys[start : start + 64]]
        )


async def _get_per_key(client: AsyncStoreClient,
                       chunk: List[bytes]) -> Dict[bytes, bytes]:
    """The per-key baseline: one pipelined ``get <key>`` frame per key."""
    result = await client.execute([GetCommand(keys=(key,)) for key in chunk])
    out: Dict[bytes, bytes] = {}
    for key, response in zip(chunk, result):
        if not isinstance(response, GetResponse):
            raise unexpected_response(response, "GET")
        if response.values:
            out[key] = response.values[0].value
    return out


def _fetch(mode: str, client: AsyncStoreClient) -> Fetch:
    """The batch fetch one wire mode times."""
    return partial(_get_per_key, client) if mode == "perkey" else client.get_many


async def _verify_identical(host: str, port: int,
                            chunks: List[List[bytes]]) -> None:
    """Both wire modes must return byte-identical results before timing."""
    async with AsyncStoreClient(host, port) as client:
        for chunk in chunks:
            a = await _fetch("perkey", client)(chunk)
            b = await _fetch("mget", client)(chunk)
            if a != b:
                raise AssertionError(
                    f"mode results diverge for batch {chunk[:2]}...: "
                    f"{len(a)} vs {len(b)} hits"
                )


async def _drive(fetch: Fetch, chunks: List[List[bytes]],
                 depth: int) -> Dict[str, object]:
    """Closed-loop timed phase: ``depth`` workers share the chunk list."""
    histogram = LatencyHistogram(max_value=1e9, sub_buckets=32)
    perf_counter = time.perf_counter
    cursor = [0]
    hits = [0]
    operations = [0]

    async def worker() -> None:
        while True:
            index = cursor[0]
            if index >= len(chunks):
                return
            cursor[0] = index + 1
            chunk = chunks[index]
            batch_start = perf_counter()
            found = await fetch(chunk)
            histogram.record((perf_counter() - batch_start) * 1e6)
            hits[0] += len(found)
            operations[0] += len(chunk)

    # prime connections so the timed phase measures serving, not dialing
    await fetch(chunks[0])
    started = perf_counter()
    await asyncio.gather(*(worker() for _ in range(depth)))
    wall = perf_counter() - started
    return {
        "operations": operations[0],
        "wall_seconds": round(wall, 4),
        "ops_per_sec": round(operations[0] / wall, 1) if wall > 0 else 0.0,
        "hit_rate": round(hits[0] / operations[0], 4) if operations[0] else 0.0,
        "batch_latency_us": {
            "mean": round(histogram.mean, 1),
            "p50": round(histogram.percentile(50), 1),
            "p99": round(histogram.percentile(99), 1),
        },
    }


async def _measure(
    batch_sizes: Sequence[int],
    pipeline_depths: Sequence[int],
    ops_per_mode: int,
    num_keys: int,
    value_size: int,
) -> List[Dict[str, object]]:
    store = KVStore(
        memory_limit=MEMORY_LIMIT, slab_size=SLAB_SIZE,
        policy_factory=GDWheelPolicy,
    )
    keys = _keys(num_keys)
    results: List[Dict[str, object]] = []
    async with AsyncTCPStoreServer(store) as server:
        host, port = server.address
        async with AsyncStoreClient(host, port) as warmer:
            await _warm(warmer, keys, value_size)
        for batch in batch_sizes:
            # identical-results gate: a handful of batches through both
            # modes, compared before any clock starts
            await _verify_identical(host, port, _chunks(keys, batch, batch * 32))
            for depth in pipeline_depths:
                chunks = _chunks(keys, batch, ops_per_mode)
                entry: Dict[str, object] = {
                    "batch": batch,
                    "pipeline_depth": depth,
                    "modes": {},
                }
                for mode in MODES:
                    async with AsyncStoreClient(
                        host, port, pool_size=depth,
                    ) as client:
                        entry["modes"][mode] = await _drive(
                            _fetch(mode, client), chunks, depth
                        )
                perkey = entry["modes"]["perkey"]["ops_per_sec"]
                mget = entry["modes"]["mget"]["ops_per_sec"]
                entry["mget_speedup"] = (
                    round(mget / perkey, 3) if perkey else 0.0
                )
                results.append(entry)
                print(
                    f"batch={batch} depth={depth}: perkey {perkey:,.0f} "
                    f"ops/s, mget {mget:,.0f} ops/s "
                    f"({entry['mget_speedup']}x)",
                    file=sys.stderr,
                )
    return results


# -- transport A/B: BufferedProtocol stack vs frozen streams stack ----------


async def _raw_exchange(host: str, port: int, payload: bytes,
                        terminators: int) -> bytes:
    """Send one pipelined request blob, return the raw response bytes.

    Plain streams on purpose — the harness must be independent of both
    transports under test so it cannot mask a divergence.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        received = bytearray()
        while received.count(b"END\r\n") < terminators:
            chunk = await asyncio.wait_for(reader.read(65536), 10.0)
            if not chunk:
                break
            received.extend(chunk)
        return bytes(received)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _verify_transports_identical(
    old_address, new_address, keys: List[bytes]
) -> None:
    """Identical request bytes in, byte-identical response bytes out.

    Exercises both framings the timed phase uses (per-key ``get`` and
    ``mget``), plus misses, in one pipelined blob per server.
    """
    sample = keys[:64]
    payload = bytearray()
    terminators = 0
    for key in sample:
        payload += b"get " + key + b"\r\n"
        payload += b"mget " + key + b" missing%08d\r\n" % terminators
        terminators += 2
    old_bytes = await _raw_exchange(*old_address, bytes(payload), terminators)
    new_bytes = await _raw_exchange(*new_address, bytes(payload), terminators)
    if old_bytes != new_bytes:
        raise AssertionError(
            "transport responses diverge: frozen streams answered "
            f"{len(old_bytes)} bytes, protocol stack {len(new_bytes)} bytes"
        )
    if old_bytes.count(b"END\r\n") != terminators:
        raise AssertionError("verification exchange came back short")


async def _measure_transport_ab(
    ops: int, rounds: int, num_keys: int, value_size: int,
    depth: int = TRANSPORT_DEPTH,
) -> Dict[str, object]:
    """Interleaved best-of-N: frozen streams vs BufferedProtocol stack."""
    store = KVStore(
        memory_limit=MEMORY_LIMIT, slab_size=SLAB_SIZE,
        policy_factory=GDWheelPolicy,
    )
    keys = _keys(num_keys)
    chunks = _chunks(keys, TRANSPORT_BATCH, ops)
    async with AsyncTCPStoreServer(store) as new_server:
        async with FrozenStreamsServer(store) as old_server:
            async with AsyncStoreClient(*new_server.address) as warmer:
                await _warm(warmer, keys, value_size)
            # identical-results gate before any clock starts
            await _verify_transports_identical(
                old_server.address, new_server.address, keys
            )
            best: Dict[str, Dict[str, object]] = {}
            for _ in range(rounds):
                # interleaved rounds: drift hits both arms equally
                old_client = FrozenStreamsClient(
                    *old_server.address, pool_size=depth
                )
                async with old_client:
                    old_run = await _drive(old_client.get_many, chunks, depth)
                new_client = AsyncStoreClient(
                    *new_server.address, pool_size=depth
                )
                async with new_client:
                    new_run = await _drive(new_client.get_many, chunks, depth)
                for mode, run in (
                    ("frozen_streams", old_run), ("protocol", new_run)
                ):
                    if (
                        mode not in best
                        or run["ops_per_sec"] > best[mode]["ops_per_sec"]
                    ):
                        best[mode] = run
    old_ops = best["frozen_streams"]["ops_per_sec"]
    new_ops = best["protocol"]["ops_per_sec"]
    entry: Dict[str, object] = {
        "batch": TRANSPORT_BATCH,
        "pipeline_depth": depth,
        "rounds": rounds,
        "ops_per_round": ops,
        "num_keys": num_keys,
        "value_size_bytes": value_size,
        "verified_byte_identical": True,
        "modes": best,
        "transport_speedup": round(new_ops / old_ops, 3) if old_ops else 0.0,
    }
    print(
        f"transport batch={TRANSPORT_BATCH} depth={depth}: "
        f"frozen-streams {old_ops:,.0f} ops/s, protocol {new_ops:,.0f} "
        f"ops/s ({entry['transport_speedup']}x)",
        file=sys.stderr,
    )
    return entry


def run_transport_ab(
    ops: int = DEFAULT_TRANSPORT_OPS,
    rounds: int = DEFAULT_TRANSPORT_ROUNDS,
    num_keys: int = DEFAULT_KEYS,
    value_size: int = DEFAULT_VALUE_SIZE,
    depth: int = TRANSPORT_DEPTH,
) -> Dict[str, object]:
    """The transport A/B alone (the CI guard test calls this)."""
    return asyncio.run(
        _measure_transport_ab(ops, rounds, num_keys, value_size, depth)
    )


def run_net_bench(
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    pipeline_depths: Sequence[int] = DEFAULT_PIPELINE_DEPTHS,
    ops_per_mode: int = DEFAULT_OPS_PER_MODE,
    num_keys: int = DEFAULT_KEYS,
    value_size: int = DEFAULT_VALUE_SIZE,
    transport_ops: int = DEFAULT_TRANSPORT_OPS,
    transport_rounds: int = DEFAULT_TRANSPORT_ROUNDS,
) -> Dict[str, object]:
    """Measure both A/Bs and assemble the BENCH_net document."""
    results = asyncio.run(
        _measure(batch_sizes, pipeline_depths, ops_per_mode, num_keys,
                 value_size)
    )
    transport_ab = run_transport_ab(
        ops=transport_ops, rounds=transport_rounds,
        num_keys=num_keys, value_size=value_size,
    )
    config = net_config(
        batch_sizes, pipeline_depths, num_keys, value_size, ops_per_mode
    )
    config["uvloop"] = uvloop_available()
    return {
        "benchmark": "net_throughput",
        "generated_unix": int(time.time()),
        "environment": environment_facts(),
        "config": config,
        "results": results,
        "transport_ab": transport_ab,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_net.json",
                        help="output JSON path (default: ./BENCH_net.json)")
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=list(DEFAULT_BATCH_SIZES))
    parser.add_argument("--pipeline-depths", type=int, nargs="+",
                        default=list(DEFAULT_PIPELINE_DEPTHS))
    parser.add_argument("--ops-per-mode", type=int,
                        default=DEFAULT_OPS_PER_MODE)
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--value-size", type=int, default=DEFAULT_VALUE_SIZE)
    parser.add_argument("--transport-ops", type=int,
                        default=DEFAULT_TRANSPORT_OPS)
    parser.add_argument("--transport-rounds", type=int,
                        default=DEFAULT_TRANSPORT_ROUNDS)
    args = parser.parse_args(argv)
    # optional uvloop accelerant; stdlib fallback when absent
    install_loop_policy()
    document = run_net_bench(
        batch_sizes=tuple(args.batch_sizes),
        pipeline_depths=tuple(args.pipeline_depths),
        ops_per_mode=args.ops_per_mode,
        num_keys=args.keys,
        value_size=args.value_size,
        transport_ops=args.transport_ops,
        transport_rounds=args.transport_rounds,
    )
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
