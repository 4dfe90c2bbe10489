"""``repro.aio`` — the asyncio serving stack.

The simulation side of the reproduction measures *policies*; this package
is the serving layer the paper's throughput/latency figures (7-9) assume:
a real networked store multiplexing many client connections.  One event
loop per process serves every connection to its store, and both ends of
the wire run on low-level ``BufferedProtocol`` transports (zero-copy
receive, callback-driven backpressure):

* :class:`AsyncTCPStoreServer` — asyncio TCP server over the same
  byte-in/byte-out :class:`~repro.protocol.server.StoreServer` dispatcher,
  with request pipelining, transport-level write backpressure
  (``pause_writing``/``resume_writing``), connection limits, and graceful
  shutdown.
* :class:`AsyncStoreClient` — pooled, pipelining client with
  future-per-pipeline-slot completion, per-batch timeouts, and retry
  (exponential backoff + jitter) on connect/timeout failures.
* :class:`AsyncStorePool` — scatter/gather fan-out over a
  :class:`~repro.cluster.consistent.ConsistentHashRing` of async clients;
  the one routed pool (:class:`~repro.replica.pool.GroupPool`) with every
  client an unreplicated group of one.
* :func:`run_closed_loop` — a closed-loop YCSB-style load generator
  reporting throughput and p50/p95/p99 latency.
* :func:`loop_policy` / :func:`install` — optional uvloop acceleration
  with a graceful stdlib fallback.
* :func:`tune_socket` — the shared TCP tuning policy (NODELAY + explicit
  buffer sizing) every connect/accept path applies.
"""

from repro.aio.backoff import RetryPolicy
from repro.aio.client import AsyncStoreClient, BatchResult
from repro.aio.loadgen import LoadReport, run_closed_loop, run_closed_loop_sync
from repro.aio.loops import install, loop_policy, uvloop_available
from repro.aio.pool import AsyncStorePool
from repro.aio.server import AsyncTCPStoreServer
from repro.protocol.sockopt import tune_socket

__all__ = [
    "AsyncStoreClient",
    "AsyncStorePool",
    "AsyncTCPStoreServer",
    "BatchResult",
    "LoadReport",
    "RetryPolicy",
    "install",
    "loop_policy",
    "run_closed_loop",
    "run_closed_loop_sync",
    "tune_socket",
    "uvloop_available",
]
