"""Server self-protection knobs: idle timeouts, deadlines, load shedding.

An overloaded cache that degrades *everyone* is worse than one that says
``SERVER_ERROR busy`` to *some* — the paper's cost-aware replacement only
helps if the serving layer in front of it survives load swings.  An
:class:`OverloadPolicy` bundles the three defences the server
(:class:`~repro.aio.server.AsyncTCPStoreServer`) understands:

* **idle timeout** — a silent client can no longer pin a
  ``max_connections`` slot forever; the server closes it and records an
  :class:`~repro.obs.trace.IdleDisconnectEvent`.
* **request deadline** — a pipelined batch gets a wall-clock budget; once
  it is spent, the remaining commands in the batch are answered
  ``SERVER_ERROR busy`` (framing preserved: one reply per reply-expecting
  command) instead of holding the loop hostage.
* **load shedding** — when in-flight batches exceed ``max_inflight`` or
  the dispatch-latency EWMA exceeds ``shed_latency_us``, whole incoming
  batches are answered busy without touching the store.

``None`` for any knob disables that defence; the all-``None`` default is
byte-for-byte the unprotected fast path (the overhead-guard benchmark
holds it to the PR 3 baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class OverloadPolicy:
    """Which self-protections are armed, and their thresholds.

    Args:
        idle_timeout: seconds a connection may sit with no readable bytes
            before the server closes it.
        request_deadline: wall-clock seconds one pipelined batch may spend
            dispatching before its remaining commands are shed.
        max_inflight: batches concurrently between read and fully-written
            response, above which new batches are shed (queue-depth gate).
        shed_latency_us: dispatch-latency EWMA (microseconds per batch)
            above which new batches are shed (latency gate).
        latency_alpha: EWMA smoothing factor in (0, 1]; higher reacts
            faster to spikes.
    """

    idle_timeout: Optional[float] = None
    request_deadline: Optional[float] = None
    max_inflight: Optional[int] = None
    shed_latency_us: Optional[float] = None
    latency_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError("request_deadline must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.shed_latency_us is not None and self.shed_latency_us <= 0:
            raise ValueError("shed_latency_us must be positive")
        if not 0.0 < self.latency_alpha <= 1.0:
            raise ValueError("latency_alpha must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        """True when any defence is armed."""
        return (
            self.idle_timeout is not None
            or self.request_deadline is not None
            or self.max_inflight is not None
            or self.shed_latency_us is not None
        )
