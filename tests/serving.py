"""Blocking-socket access to the asyncio server for synchronous tests.

:class:`ServingThread` runs an :class:`~repro.aio.AsyncTCPStoreServer` on
its own event loop in a daemon thread, so plain sockets and the blocking
:class:`~repro.protocol.CostAwareClient` can talk to it from the test
thread.  Blocking socket calls made inside the server's own loop would
deadlock: the server never gets scheduled to reply.
"""

from __future__ import annotations

import asyncio
import threading

from repro.aio import AsyncTCPStoreServer

#: seconds to wait for the server to start or stop
TIMEOUT = 5.0


class ServingThread:
    """A started server on a private loop; :meth:`stop` tears both down."""

    def __init__(self, store=None, **kwargs) -> None:
        self.server = AsyncTCPStoreServer(store, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="test-serving-loop", daemon=True
        )
        self._thread.start()
        try:
            self._call(self.server.start())
        except BaseException:
            self._close_loop()
            raise

    @property
    def address(self):
        return self.server.address

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(TIMEOUT)

    def _close_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(TIMEOUT)
        self._loop.close()

    def stop(self) -> None:
        """Stop the server and its loop; later calls are no-ops."""
        if self._loop.is_closed():
            return
        try:
            self._call(self.server.stop())
        finally:
            self._close_loop()

    def __enter__(self) -> "ServingThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

