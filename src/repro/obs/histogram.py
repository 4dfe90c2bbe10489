"""Log-bucketed bounded-relative-error histogram (HdrHistogram-style).

The paper reports average and 99th-percentile latencies over 100 M
requests; a real harness cannot keep every sample, so production systems
record into histograms with bounded relative error.  This one mirrors
HdrHistogram's layout: values are bucketed by magnitude (powers of two)
with a fixed number of linear sub-buckets per magnitude, giving a
configurable worst-case relative error at O(1) record cost and O(buckets)
memory, independent of the sample count.

:class:`BoundedHistogram` is the one histogram implementation in the repo:
the simulation harness and the async load generator record request
latencies into it under its ``LatencyHistogram`` alias (defined at the
bottom of this module), and the :mod:`repro.obs` metrics registry wraps
it for live per-command latency series.  It is interchangeable with exact
percentiles for validation (the tests check the error bound against
numpy's exact percentile).
"""

from __future__ import annotations

from math import frexp as _frexp
from typing import Iterator, List, Tuple

import numpy as np


class BoundedHistogram:
    """Bounded-relative-error value histogram with percentile queries."""

    def __init__(self, max_value: float = 1e9, sub_buckets: int = 32) -> None:
        """
        Args:
            max_value: largest recordable value; higher records clamp (and
                are counted in :attr:`clamped`).
            sub_buckets: linear sub-buckets per power-of-two magnitude —
                the relative error bound is ``1 / sub_buckets``.
        """
        if max_value <= 1:
            raise ValueError("max_value must exceed 1")
        if sub_buckets < 2:
            raise ValueError("sub_buckets must be >= 2")
        self.max_value = float(max_value)
        self.sub_buckets = sub_buckets
        self._magnitudes = int(np.ceil(np.log2(max_value))) + 1
        # plain Python list: a scalar list increment is ~10x faster than a
        # numpy indexed increment, and record() is on every hot path
        self._counts = [0] * (self._magnitudes * sub_buckets)
        self._total = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        #: records above max_value (clamped into the top bucket)
        self.clamped = 0

    # -- recording ----------------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value < 1.0:
            return 0
        magnitude = int(value).bit_length() - 1  # floor(log2(value))
        base = 1 << magnitude
        sub = int((value - base) * self.sub_buckets / base)
        sub = min(sub, self.sub_buckets - 1)
        index = magnitude * self.sub_buckets + sub
        return min(index, len(self._counts) - 1)

    def record(self, value: float) -> None:
        """Record one sample; negative values are rejected.

        This is the per-operation hot path (two records per served command
        when fully instrumented), so :meth:`_bucket_index` is inlined and
        branches replace ``min``/``max`` calls.
        """
        if value < 0:
            raise ValueError("cannot record negative values")
        if value > self.max_value:
            self.clamped += 1
            value = self.max_value
        if value < 1.0:
            index = 0
        else:
            # frexp gives value = m * 2^e with 0.5 <= m < 1, so the
            # magnitude is e-1 and (2m - 1) is the position inside it
            mantissa, exponent = _frexp(value)
            sub = int((2.0 * mantissa - 1.0) * self.sub_buckets)
            if sub >= self.sub_buckets:
                sub = self.sub_buckets - 1
            index = (exponent - 1) * self.sub_buckets + sub
            last = len(self._counts) - 1
            if index > last:
                index = last
        self._counts[index] += 1
        self._total += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values: np.ndarray) -> None:
        """Vectorized bulk record."""
        values = np.asarray(values, dtype=np.float64)
        if (values < 0).any():
            raise ValueError("cannot record negative values")
        over = values > self.max_value
        self.clamped += int(over.sum())
        values = np.minimum(values, self.max_value)
        clipped = np.maximum(values, 1.0)
        magnitudes = np.floor(np.log2(clipped)).astype(np.int64)
        bases = np.power(2.0, magnitudes)
        subs = np.minimum(
            ((clipped - bases) * self.sub_buckets / bases).astype(np.int64),
            self.sub_buckets - 1,
        )
        indices = np.where(
            values < 1.0, 0, magnitudes * self.sub_buckets + subs
        )
        indices = np.minimum(indices, len(self._counts) - 1)
        bucket_counts = np.bincount(indices, minlength=len(self._counts))
        for index in np.nonzero(bucket_counts)[0]:
            self._counts[index] += int(bucket_counts[index])
        self._total += len(values)
        self._sum += float(values.sum())
        if len(values):
            self._min = min(self._min, float(values.min()))
            self._max = max(self._max, float(values.max()))

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    @property
    def total(self) -> int:
        """Number of recorded samples (including clamped ones)."""
        return self._total

    @property
    def sum(self) -> float:
        """Sum of all recorded values (clamped values count as max_value)."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def min(self) -> float:
        return self._min if self._total else 0.0

    @property
    def max(self) -> float:
        return self._max

    def _bucket_upper_bound(self, index: int) -> float:
        magnitude, sub = divmod(index, self.sub_buckets)
        base = 1 << magnitude
        return base + (sub + 1) * base / self.sub_buckets

    def percentile(self, pct: float) -> float:
        """Value at ``pct`` (0-100], within ``1/sub_buckets`` relative error.

        An empty histogram answers 0.0 for every percentile.
        """
        if not 0 < pct <= 100:
            raise ValueError("pct must be in (0, 100]")
        if self._total == 0:
            return 0.0
        target = int(np.ceil(self._total * pct / 100.0))
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target))
        return min(self._bucket_upper_bound(index), self._max)

    def merge(self, other: "BoundedHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (
            other.sub_buckets != self.sub_buckets
            or other._magnitudes != self._magnitudes
        ):
            raise ValueError("histograms have different geometry")
        self._counts = [a + b for a, b in zip(self._counts, other._counts)]
        self._total += other._total
        self._sum += other._sum
        self.clamped += other.clamped
        if other._total:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    def reset(self) -> None:
        """Drop every recorded sample (geometry is kept)."""
        self._counts = [0] * len(self._counts)
        self._total = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self.clamped = 0

    def nonzero_buckets(self) -> Iterator[Tuple[float, int]]:
        """(upper bound, count) for every populated bucket."""
        for index, count in enumerate(self._counts):
            if count:
                yield self._bucket_upper_bound(index), count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) per populated bucket, ascending.

        This is the Prometheus histogram shape (``le`` buckets); the final
        ``+Inf`` bucket is implied by :attr:`total`.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for upper, count in self.nonzero_buckets():
            running += count
            out.append((upper, running))
        return out

    def summary(self, percentiles: Tuple[float, ...] = (50, 95, 99)) -> dict:
        """count/mean/min/max plus the requested percentiles, as a flat dict."""
        out = {
            "count": self._total,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "clamped": self.clamped,
        }
        for pct in percentiles:
            label = f"{pct:g}".replace(".", "_")
            out[f"p{label}"] = self.percentile(pct)
        return out


#: The name latency recorders use (the simulator, the load generator).
LatencyHistogram = BoundedHistogram
