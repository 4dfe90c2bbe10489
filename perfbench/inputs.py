"""Seeded inputs for every workload: keys, values, costs, op streams, arrivals.

The program under test only ever sees what this module generates.  Key
popularity follows the paper's Zipf request distribution (YCSB's theta
0.99) with the rank-to-key mapping shuffled by the seed, and costs follow
Table 2's baseline bands.  Every key gets its own value bytes, so a GET
that returns another key's value (or a torn one) fails the byte check.
"""

from __future__ import annotations

import numpy as np

#: Table 2 "baseline" recomputation-cost bands: (low, high, share)
BASELINE_BANDS = ((10, 30, 0.80), (120, 180, 0.15), (350, 450, 0.05))
THETA = 0.99
KEY_SIZE = 16


class Universe:
    """A fixed key universe: key bytes, per-key value and cost, popularity."""

    def __init__(self, num_keys: int, value_size: int, seed: int) -> None:
        if num_keys < 1 or value_size < KEY_SIZE:
            raise ValueError("need num_keys >= 1 and value_size >= KEY_SIZE")
        rng = np.random.default_rng([seed, num_keys, value_size])
        self.num_keys = num_keys
        self.value_size = value_size
        self.seed = seed
        self.keys = [b"k%0*d" % (KEY_SIZE - 1, i) for i in range(num_keys)]
        band = rng.choice(
            len(BASELINE_BANDS), size=num_keys,
            p=[share for _, _, share in BASELINE_BANDS],
        )
        lows = np.array([low for low, _, _ in BASELINE_BANDS])[band]
        highs = np.array([high for _, high, _ in BASELINE_BANDS])[band]
        self.costs = rng.integers(lows, highs + 1).tolist()
        # the key leads its own value; the tail is seeded noise
        fill = rng.integers(33, 127, size=num_keys * value_size, dtype=np.uint8)
        raw = fill.tobytes()
        size = value_size
        self.values = [
            key + raw[i * size + KEY_SIZE:(i + 1) * size]
            for i, key in enumerate(self.keys)
        ]
        weights = 1.0 / np.power(np.arange(1, num_keys + 1, dtype=np.float64), THETA)
        self._pmf = weights / weights.sum()
        self._rank_to_key = rng.permutation(num_keys)
        self._rng = rng

    def sample(self, count: int) -> np.ndarray:
        """``count`` Zipf-popular key ids."""
        ranks = self._rng.choice(self.num_keys, size=count, p=self._pmf)
        return self._rank_to_key[ranks]

    def warmup_order(self) -> list:
        """Every key id once, in a seeded order (independent of sampling)."""
        rng = np.random.default_rng([self.seed, self.num_keys, 101])
        return rng.permutation(self.num_keys).tolist()

    def ops(self, count: int, set_share: float) -> list:
        """``count`` seeded ``(key_id, is_set)`` requests, each a SET with
        probability ``set_share``."""
        key_ids = self.sample(count).tolist()
        return list(zip(key_ids, (self._rng.random(count) < set_share).tolist()))

    def item_bytes(self) -> int:
        """User bytes of the whole universe (keys + values)."""
        return self.num_keys * (KEY_SIZE + self.value_size)


def poisson_arrivals(rate: float, duration: float, seed: int) -> np.ndarray:
    """Due offsets (seconds from step start) of a Poisson process.

    The same ``(rate, duration, seed)`` always gives the same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng([seed, int(rate), int(duration * 1000)])
    # draw a little more than expected, then cut at the step's end
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected ** 0.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration]
