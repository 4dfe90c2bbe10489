"""Crash safety: SIGKILL mid-spill, reopen, and verify nothing corrupt.

Two levels: a bare :class:`FlashTier` writer killed mid-append (torn-tail
recovery must serve only CRC-clean records), and a whole shard worker
killed mid-spill under live protocol traffic (the respawned worker must
recover its predecessor's tier and keep serving consistent values).
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.tier import FlashTier, TierConfig

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def expected_value(key: bytes) -> bytes:
    """The deterministic value the crash writer stores for ``key``."""
    return (key[::-1] + b"|") * 10


#: the child spills forever until killed; values derive from the key so
#: the parent can verify every recovered record against the formula
WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.tier import FlashTier, TierConfig

def expected_value(key):
    return (key[::-1] + b"|") * 10

tier = FlashTier({tier_dir!r}, TierConfig(
    capacity_bytes=256 * 1024, segment_bytes=16 * 1024))
print("ready", flush=True)
i = 0
while True:
    key = ("crash-%06d" % i).encode()
    tier.spill(key, expected_value(key), cost=1 + i % 100)
    i += 1
"""


def test_sigkill_mid_spill_recovers_clean(tmp_path):
    tier_dir = str(tmp_path / "tier")
    child = subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT.format(src=SRC_DIR, tier_dir=tier_dir)],
        stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline().strip() == b"ready"
        # let it write long enough to span several segments, then murder it
        deadline = time.monotonic() + 10.0
        tier_path = Path(tier_dir)
        while time.monotonic() < deadline:
            segs = list(tier_path.glob("seg-*.log"))
            if len(segs) >= 2 and sum(p.stat().st_size for p in segs) > 48 * 1024:
                break
            time.sleep(0.01)
        else:
            pytest.fail("writer never produced enough segments")
        child.kill()
        child.wait(timeout=10)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on failure
            child.kill()
            child.wait()

    # reopen: torn tails truncated, every surviving record must be exact
    tier = FlashTier(
        tier_dir, TierConfig(capacity_bytes=256 * 1024, segment_bytes=16 * 1024)
    )
    assert tier.recovered_records > 0
    assert len(tier) > 0
    checked = 0
    for page in tier.mapping._pages.values():
        for key in list(page):
            record = tier.lookup(key)
            assert record is not None, f"mapped key {key!r} unreadable"
            assert record.value == expected_value(key)
            checked += 1
    assert checked == len(tier) > 0
    # reopened tier keeps working as a writer too
    assert tier.spill(b"after-crash", expected_value(b"after-crash"), cost=50)
    assert tier.lookup(b"after-crash").value == expected_value(b"after-crash")
    tier.close()


def test_double_reopen_is_stable(tmp_path):
    """Recovery is idempotent: reopen twice, same live set both times."""
    tier_dir = tmp_path / "tier"
    tier = FlashTier(
        tier_dir, TierConfig(capacity_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    for i in range(50):
        key = f"k{i:03d}".encode()
        tier.spill(key, expected_value(key), cost=10)
    live = {key for page in tier.mapping._pages.values() for key in page}
    tier.close()

    first = FlashTier(
        tier_dir, TierConfig(capacity_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    assert {k for p in first.mapping._pages.values() for k in p} == live
    first.close()
    second = FlashTier(
        tier_dir, TierConfig(capacity_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    assert {k for p in second.mapping._pages.values() for k in p} == live
    second.close()


def test_close_releases_index_and_reopen_recovers_costs(tmp_path):
    """close() empties the in-RAM index; a new tier on the same directory
    serves every record that was live, with its latest cost."""
    tier_dir = tmp_path / "tier"
    config = TierConfig(capacity_bytes=64 * 1024, segment_bytes=8 * 1024)
    tier = FlashTier(tier_dir, config)
    for i in range(60):
        key = f"k{i:03d}".encode()
        assert tier.spill(key, expected_value(key), cost=10 + i)
    for i in range(0, 60, 3):  # re-spill a third with a new cost
        key = f"k{i:03d}".encode()
        assert tier.spill(key, expected_value(key), cost=500 + i)
    live = {key: entry.cost for page in tier.mapping._pages.values()
            for key, entry in page.items()}
    assert len(live) == 60
    assert tier.lookup(b"k001").cost == 11  # warms a CMT page
    tier.close()
    assert len(tier) == 0
    assert len(tier.cmt) == 0

    reopened = FlashTier(tier_dir, config)
    assert len(reopened) == len(live)
    for key, cost in live.items():
        record = reopened.lookup(key)
        assert record is not None, f"live key {key!r} lost across close"
        assert record.value == expected_value(key)
        assert record.cost == cost
    reopened.close()


def test_shard_worker_killed_mid_spill(tmp_path):
    """Chaos: SIGKILL a tiered shard worker under write load; the respawn
    must recover the tier directory and serve consistent values."""
    from repro.protocol.client import CostAwareClient
    from repro.shard import ShardSupervisor

    with ShardSupervisor(
        num_shards=1,
        memory_limit=256 * 1024,
        slab_size=64 * 1024,
        policy="lru",
        monitor_interval=0.05,
        tier_bytes=4 * 1024 * 1024,
        tier_dir=str(tmp_path),
    ) as sup:
        (host, port) = sup.endpoints()["shard-0"]

        def connect():
            return CostAwareClient.tcp(host, port)

        def set_range(client, start, stop):
            for i in range(start, stop):
                key = f"crash-{i:05d}".encode()
                client.set(key, expected_value(key), cost=5 + i % 90)

        client = connect()
        # overcommit RAM several times over so the worker actively spills...
        set_range(client, 0, 4000)
        stats = client.stats("tier")
        assert int(stats["spills"]) > 0, "worker never spilled; shrink RAM"
        client.close()

        sup.kill_worker("shard-0")  # ...and kill it mid-stream
        assert sup.wait_for_respawn("shard-0", timeout=30.0)
        (host, port) = sup.endpoints()["shard-0"]

        # reconnect with retries (listener may be a beat behind "alive")
        for attempt in range(50):
            try:
                client = connect()
                stats = client.stats("tier")
                break
            except OSError:
                time.sleep(0.1)
        else:
            pytest.fail("respawned worker never accepted a connection")

        # the replacement recovered its predecessor's spilled records
        assert int(stats["recovered_records"]) > 0
        # every key still reachable (RAM was lost, tier survivors remain)
        # must round-trip to exactly the written bytes — never corrupt
        hits = 0
        for i in range(0, 4000, 13):
            key = f"crash-{i:05d}".encode()
            value = client.get(key)
            if value is not None:
                assert value == expected_value(key)
                hits += 1
        assert hits > 0, "no spilled key survived the crash"
        # and the worker keeps serving writes against the recovered tier
        set_range(client, 4000, 4100)
        assert client.get(b"crash-04099") == expected_value(b"crash-04099")
        client.close()
