"""One socket-tuning policy for every TCP endpoint in the repo.

Every path that produces a connected TCP socket — the asyncio server's
accept, the async client's dial (and redial), the blocking
:class:`~repro.protocol.client.TCPTransport`, both legs of the
ChaosProxy, and the replica bootstrap stream —
funnels through :func:`tune_socket` so the wire behaves the same
everywhere:

* ``TCP_NODELAY`` **on**.  The protocol already coalesces writes itself
  (one scratch-buffer write per pipelined batch, CORK-style transport
  coalescing above that), so Nagle's algorithm can only add 40 ms
  delayed-ACK stalls to small request/response frames — the classic
  memcached footgun.
* Explicit ``SO_SNDBUF`` / ``SO_RCVBUF`` sizing.  Distribution defaults
  vary wildly (and auto-tuning starts small); pinning both ends to the
  same window keeps loopback benchmarks comparable across machines and
  gives deep pipelines a full batch of in-flight bytes.

The helper is deliberately forgiving: anything that is not a connected
TCP socket (Unix sockets, loopback test doubles, an already-closed fd)
is left untouched and reported via the ``False`` return, never an
exception — transports call this in accept/connect callbacks where a
raise would kill the connection for a tuning nicety.
"""

from __future__ import annotations

import socket
from typing import Optional

#: default socket buffer size for both directions; large enough that a
#: 64 KiB pipelined batch plus its responses fit in flight, small enough
#: not to bloat per-connection kernel memory with thousands of clients
SOCKET_BUFFER = 256 * 1024


def tune_socket(
    sock,
    nodelay: bool = True,
    sndbuf: Optional[int] = SOCKET_BUFFER,
    rcvbuf: Optional[int] = SOCKET_BUFFER,
) -> bool:
    """Apply the shared TCP tuning policy to ``sock``.

    Args:
        sock: anything ``get_extra_info("socket")`` or an accept loop may
            hand over — a real TCP socket, a non-TCP socket, a transport
            wrapper, or ``None``.
        nodelay: disable Nagle (``TCP_NODELAY``).
        sndbuf/rcvbuf: explicit buffer sizes; ``None`` skips that knob.

    Returns:
        ``True`` if the socket was a tunable TCP socket and every
        requested option was applied; ``False`` if it was skipped (not a
        socket, not TCP/IP, or the kernel refused).
    """
    if sock is None:
        return False
    # asyncio hands out a TransportSocket proxy; it forwards setsockopt,
    # so duck-typing beats isinstance here
    setsockopt = getattr(sock, "setsockopt", None)
    if setsockopt is None:
        return False
    family = getattr(sock, "family", None)
    if family not in (socket.AF_INET, getattr(socket, "AF_INET6", None)):
        return False
    if getattr(sock, "type", None) != socket.SOCK_STREAM:
        return False
    try:
        if nodelay:
            setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if sndbuf is not None:
            setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        if rcvbuf is not None:
            setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    except (OSError, ValueError):
        # closed fd, or a kernel that rejects the option — tuning is a
        # nicety, never a reason to drop the connection
        return False
    return True
