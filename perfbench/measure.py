"""Measurement helpers: percentiles with sample counts, spans, CPUs, RSS.

Nothing here imports the program under test, so the self-tests can run
these pieces on their own.
"""

from __future__ import annotations

import contextvars
import math
import os
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
#: samples a percentile needs beyond it before it is published
MIN_BEYOND = 10


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def supported_tail(n: int) -> Optional[float]:
    """The highest tail percentile with at least ``MIN_BEYOND`` samples
    beyond it, or None when even p75 would be thin."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def latency_summary(samples: Iterable[float]) -> Dict[str, float]:
    """Median and the highest supported tail percentile, with the count.

    Failed or refused ops are recorded as ``inf`` by the workload loops, so
    they land above any limit.  The tail is reported under its own percentile
    (``q``), never as a thin p99.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[str, float] = {"n": n}
    if n == 0:
        return out
    out["p50"] = percentile(ordered, 50.0)
    tail = supported_tail(n)
    if tail is not None:
        out["q"] = tail
        out["tail"] = percentile(ordered, tail)
    return out


def median_or_none(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


# -- CPU placement -------------------------------------------------------------


class CpuPlan:
    """Disjoint CPUs for the generator and the worker process(es).

    With fewer than two usable CPUs nothing is pinned (and the output says
    so).  Scaling claims need at least four cores, so every result carries
    ``scaling_unverified`` below that.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        usable = sorted(cpus if cpus is not None else os.sched_getaffinity(0))
        self.cpus = usable
        if len(usable) >= 2:
            self.generator = {usable[0]}
            self.workers = set(usable[1:])
        else:
            self.generator = set(usable)
            self.workers = set(usable)
        self.pinned = len(usable) >= 2

    def pin_generator(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, self.generator)

    def pin_workers(self, pids: Iterable[int]) -> None:
        if self.pinned:
            for pid in pids:
                os.sched_setaffinity(pid, self.workers)

    def stamp(self) -> Dict[str, object]:
        return {
            "cpus": len(self.cpus),
            "pinning": (
                {"generator": sorted(self.generator), "workers": sorted(self.workers)}
                if self.pinned else "none"
            ),
            "scaling_unverified": len(self.cpus) < 4,
        }


# -- memory --------------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process, in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- spans ---------------------------------------------------------------------


def covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    if not intervals:
        return 0.0
    if len(intervals) == 1:
        start, end = intervals[0]
        return end - start
    total = 0.0
    cur_start, cur_end = None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


class _Span:
    __slots__ = ("sid", "name", "parent", "req", "t0", "children", "token")

    def __init__(self, sid, name, parent, req, t0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.req = req
        self.t0 = t0
        self.children: List[tuple] = []
        self.token = None


class Spans:
    """Benchmark-side spans: name, start, end, parent, one id per request.

    Aggregates per name (calls, total time, self time = duration minus
    the union of its children's intervals, so concurrent fan-out children
    are not double-counted) are exact for every span; the first ``keep``
    spans are also kept verbatim for :meth:`dump`.  The current span rides
    a ContextVar, so asyncio tasks created under a span nest under it.
    """

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.records: List[tuple] = []
        self.totals: Dict[str, List[float]] = {}
        self._next = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def start(self, name: str, req: Optional[int] = None) -> _Span:
        parent = self._current.get()
        if req is None and parent is not None:
            req = parent.req
        self._next += 1
        span = _Span(self._next, name, parent, req, time.perf_counter())
        span.token = self._current.set(span)
        return span

    def stop(self, span: _Span) -> float:
        t1 = time.perf_counter()
        self._current.reset(span.token)
        duration = t1 - span.t0
        child = covered(span.children)
        agg = self.totals.get(span.name)
        if agg is None:
            agg = self.totals[span.name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = span.parent
        if parent is not None:
            parent.children.append((span.t0, t1))
        if len(self.records) < self.keep:
            self.records.append((
                span.sid, parent.sid if parent is not None else None,
                span.req, span.name, span.t0, t1,
            ))
        return duration

    def calls(self, name: str) -> int:
        agg = self.totals.get(name)
        return int(agg[0]) if agg else 0

    def mean_us(self, name: str) -> Optional[float]:
        agg = self.totals.get(name)
        return agg[1] / agg[0] * 1e6 if agg and agg[0] else None

    def self_us(self, name: str) -> Optional[float]:
        agg = self.totals.get(name)
        return agg[2] / agg[0] * 1e6 if agg and agg[0] else None

    def total_s(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[1] if agg else 0.0

    def self_total_s(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[2] if agg else 0.0

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in microseconds)."""
        import json

        with open(path, "w") as out:
            for sid, parent, req, name, t0, t1 in self.records:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "req": req, "name": name,
                    "start_us": round(t0 * 1e6, 3), "end_us": round(t1 * 1e6, 3),
                }) + "\n")


def unattributed_pct(spans: Spans) -> float:
    """Share of the ``request`` root spans no layer span covers.

    A root's self time is its duration minus the union of its children,
    so concurrent fan-out legs are not double-counted.
    """
    return spans.self_total_s("request") / spans.total_s("request") * 100.0


# -- results -------------------------------------------------------------------


class Result:
    """What one workload run measured, plus every correctness problem."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: name -> {"value", "unit", "n", "note"}
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, object] = {}
        #: per-layer metrics the traced run measured on this workload's traffic
        self.layers: Dict[str, Optional[float]] = {}
        #: inputs for the probes that fill the rungs the traffic did not cross
        self.probe: Optional[Dict[str, object]] = None
        #: the traced run's spans, dumped at exit
        self.spans: Optional[Spans] = None

    def put(self, name: str, value: Optional[float], unit: str,
            n: Optional[int] = None, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n, "note": note}

    def put_latency(self, prefix: str, samples: Sequence[float], note: str = "") -> None:
        """``<prefix>_p50_us`` and ``<prefix>_p99_us`` from seconds samples.

        When the run cannot support p99 the tail metric carries the
        highest percentile it can, named in its note.
        """
        summary = latency_summary(samples)
        n = int(summary["n"])
        p50 = summary.get("p50")
        self.put(f"{prefix}_p50_us", None if p50 is None else p50 * 1e6, "us", n, note)
        tail = summary.get("tail")
        tail_note = note
        if tail is not None and summary["q"] != 99.0:
            tail_note = (note + "; " if note else "") + f"p{summary['q']:g}: p99 too thin"
        self.put(f"{prefix}_p99_us", None if tail is None else tail * 1e6, "us", n,
                 tail_note)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems
