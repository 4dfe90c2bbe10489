"""LatencyHistogram tests: error bounds vs exact percentiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.histogram import LatencyHistogram


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(max_value=1)
        with pytest.raises(ValueError):
            LatencyHistogram(sub_buckets=1)

    def test_empty(self):
        hist = LatencyHistogram()
        assert len(hist) == 0
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0

    def test_negative_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1)
        with pytest.raises(ValueError):
            hist.record_many(np.array([1.0, -2.0]))

    def test_single_value(self):
        hist = LatencyHistogram()
        hist.record(220.0)
        assert len(hist) == 1
        assert hist.mean == 220.0
        assert hist.min == 220.0
        assert hist.max == 220.0
        assert hist.percentile(50) == pytest.approx(220.0, rel=1 / 32)

    def test_clamping(self):
        hist = LatencyHistogram(max_value=1000)
        hist.record(5_000)
        assert hist.clamped == 1
        assert hist.max == 1000.0

    def test_clamped_values_still_counted_and_summed_at_ceiling(self):
        hist = LatencyHistogram(max_value=1000)
        hist.record(500)
        hist.record(7_000)
        hist.record_many(np.array([9_000.0, 10.0]))
        assert hist.clamped == 2
        assert hist.total == 4  # clamped samples count toward the total
        assert hist.sum == 500 + 1000 + 1000 + 10  # clamped at max_value
        assert hist.percentile(100) <= 1000.0 * (1 + 1 / 32)
        assert hist.summary()["clamped"] == 2

    def test_empty_percentiles_all_zero(self):
        hist = LatencyHistogram()
        for pct in (0.1, 50, 99, 99.9, 100):
            assert hist.percentile(pct) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] == summary["p99"] == 0.0
        assert summary["min"] == 0.0  # not inf on an empty histogram

    def test_bad_percentile(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestAccuracy:
    @pytest.mark.parametrize("pct", [50.0, 90.0, 99.0, 99.9])
    def test_percentile_error_bound_on_latency_like_data(self, pct):
        rng = np.random.default_rng(3)
        # hit/miss mixture like the paper's read latencies
        samples = np.where(
            rng.random(50_000) < 0.95,
            220.0,
            220.0 + 44.0 * rng.integers(10, 451, size=50_000),
        )
        hist = LatencyHistogram(sub_buckets=64)
        hist.record_many(samples)
        exact = float(np.percentile(samples, pct))
        approx = hist.percentile(pct)
        assert approx == pytest.approx(exact, rel=2 / 64 + 0.01)

    def test_mean_is_exact(self):
        rng = np.random.default_rng(4)
        samples = rng.exponential(500.0, size=10_000)
        hist = LatencyHistogram()
        hist.record_many(samples)
        assert hist.mean == pytest.approx(samples.mean())

    def test_scalar_and_bulk_record_agree(self):
        rng = np.random.default_rng(5)
        samples = rng.exponential(300.0, size=2_000)
        h1, h2 = LatencyHistogram(), LatencyHistogram()
        for value in samples:
            h1.record(float(value))
        h2.record_many(samples)
        assert h1._counts == h2._counts
        assert h1.percentile(99) == h2.percentile(99)


class TestMerge:
    def test_merge_equals_combined_recording(self):
        rng = np.random.default_rng(6)
        a, b = rng.exponential(100, 3_000), rng.exponential(900, 3_000)
        separate = LatencyHistogram()
        separate.record_many(np.concatenate([a, b]))
        merged = LatencyHistogram()
        other = LatencyHistogram()
        merged.record_many(a)
        other.record_many(b)
        merged.merge(other)
        assert len(merged) == len(separate)
        assert merged.percentile(99) == separate.percentile(99)
        assert merged.mean == pytest.approx(separate.mean)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(sub_buckets=32).merge(LatencyHistogram(sub_buckets=64))

    def test_merge_with_disjoint_bucket_occupancy(self):
        # one histogram entirely below the other: min/max/percentiles span both
        low, high = LatencyHistogram(), LatencyHistogram()
        low.record_many(np.full(90, 10.0))
        high.record_many(np.full(10, 100_000.0))
        low.merge(high)
        assert low.total == 100
        assert low.min == 10.0
        assert low.max == 100_000.0
        assert low.percentile(50) == pytest.approx(10.0, rel=1 / 32)
        assert low.percentile(99) == pytest.approx(100_000.0, rel=1 / 32)

    def test_merge_into_empty_and_empty_into_full(self):
        full, empty = LatencyHistogram(), LatencyHistogram()
        full.record(42.0)
        target = LatencyHistogram()
        target.merge(full)  # empty <- full
        assert target.total == 1
        assert target.min == 42.0
        full.merge(empty)  # full <- empty must not disturb min/max
        assert full.min == 42.0
        assert full.max == 42.0

    def test_merge_accumulates_clamped(self):
        a, b = LatencyHistogram(max_value=100), LatencyHistogram(max_value=100)
        a.record(500)
        b.record(600)
        b.record(700)
        a.merge(b)
        assert a.clamped == 3


class TestReset:
    def test_reset_restores_empty_state(self):
        hist = LatencyHistogram(max_value=1000)
        hist.record_many(np.array([1.0, 10.0, 5_000.0]))
        hist.reset()
        assert hist.total == 0
        assert hist.sum == 0.0
        assert hist.clamped == 0
        assert hist.min == 0.0
        assert hist.percentile(99) == 0.0
        hist.record(7.0)  # still usable after reset
        assert hist.total == 1
        assert hist.mean == 7.0


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1,
             max_size=500),
    st.sampled_from([50.0, 90.0, 99.0]),
)
@settings(max_examples=100, deadline=None)
def test_percentile_bound_property(values, pct):
    """Property: histogram percentile within the promised relative error of
    the exact percentile (plus one bucket of absolute slack near zero)."""
    hist = LatencyHistogram(max_value=2e6, sub_buckets=32)
    hist.record_many(np.array(values))
    exact = float(np.percentile(values, pct, method="inverted_cdf"))
    approx = hist.percentile(pct)
    assert approx <= max(values)
    assert approx >= exact * (1 - 2 / 32) - 1.0
