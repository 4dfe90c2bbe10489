"""AntiEntropyRepairer: digest comparison, repair, cost preservation."""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.replica import AntiEntropyRepairer, HybridLogicalClock
from tests.serving import ServingThread


def repairer_for(pair, nslots=16):
    return AntiEntropyRepairer(
        {"g0": {"g0.r0": pair[0].address, "g0.r1": pair[1].address}},
        nslots=nslots,
    )


def seed_both(pair, hlc, n=40):
    for i in range(n):
        version = hlc.tick()
        for member in pair:
            member.store.set(
                b"common-%d" % i, b"val-%d" % i, cost=i % 9, version=version
            )


class TestDetection:
    def test_converged_when_identical(self, pair):
        seed_both(pair, HybridLogicalClock())
        repairer = repairer_for(pair)
        assert repairer.converged()
        report = repairer.run_once()
        assert report.clean
        assert report.slots_diverged == 0
        assert report.keys_repaired == 0

    def test_divergence_detected(self, pair):
        hlc = HybridLogicalClock()
        seed_both(pair, hlc)
        pair[0].store.set(b"extra", b"x", version=hlc.tick())
        assert not repairer_for(pair).converged()

    def test_unreachable_member_is_not_converged(self, pair):
        seed_both(pair, HybridLogicalClock())
        pair[1].stop()
        repairer = repairer_for(pair)
        assert not repairer.converged()
        report = repairer.run_once()
        assert report.groups_skipped == 1
        assert report.groups_checked == 0


class TestRepair:
    def test_missing_keys_copied_with_original_cost(self, pair):
        hlc = HybridLogicalClock()
        seed_both(pair, hlc)
        for i in range(10):
            pair[0].store.set(
                b"only0-%d" % i, b"x-%d" % i, cost=13, version=hlc.tick()
            )
        repairer = repairer_for(pair)
        report = repairer.run_once()
        assert report.keys_repaired == 10
        assert repairer.converged()
        for i in range(10):
            item = pair[1].store.get(b"only0-%d" % i)
            assert item.value == b"x-%d" % i
            # cost rides the repair: GD-Wheel on the repaired member
            # computes the same H-value the origin did
            assert item.cost == 13

    def test_stale_version_overwritten_newer_kept(self, pair):
        hlc = HybridLogicalClock()
        seed_both(pair, hlc)
        old, new = hlc.tick(), hlc.tick()
        pair[1].store.set(b"stale", b"old-value", cost=5, version=old)
        pair[0].store.set(b"stale", b"new-value", cost=5, version=new)
        repairer = repairer_for(pair)
        repairer.run_once()
        assert repairer.converged()
        for member in pair:
            item = member.store.get(b"stale")
            assert item.value == b"new-value"
            assert item.version == new

    def test_repair_is_idempotent(self, pair):
        hlc = HybridLogicalClock()
        seed_both(pair, hlc)
        pair[0].store.set(b"extra", b"x", version=hlc.tick())
        repairer = repairer_for(pair)
        first = repairer.run_once()
        assert first.keys_repaired >= 1
        second = repairer.run_once()
        assert second.clean
        assert second.keys_repaired == 0

    def test_bidirectional_repair_in_one_sweep(self, pair):
        hlc = HybridLogicalClock()
        seed_both(pair, hlc)
        pair[0].store.set(b"left-only", b"l", version=hlc.tick())
        pair[1].store.set(b"right-only", b"r", version=hlc.tick())
        repairer = repairer_for(pair)
        repairer.run_once()
        assert repairer.converged()
        assert pair[1].store.get(b"left-only").value == b"l"
        assert pair[0].store.get(b"right-only").value == b"r"

    def test_lww_rejects_count_on_repaired_member(self, pair):
        # repair of a stale member goes through the same versioned-SET
        # path clients use; re-repairing an already-newer key is a
        # NOT_STORED, not an overwrite
        hlc = HybridLogicalClock()
        old, new = hlc.tick(), hlc.tick()
        pair[0].store.set(b"k", b"new", version=new)
        pair[1].store.set(b"k", b"old", version=old)
        repairer_for(pair).run_once()
        assert pair[1].store.get(b"k").value == b"new"
        assert pair[1].store.stats.lww_rejects == 0


class TestMultiGroup:
    def test_groups_repaired_independently(self, members):
        hlc = HybridLogicalClock()
        a, b, c, d = members
        groups = {
            "g0": {"g0.r0": a.address, "g0.r1": b.address},
            "g1": {"g1.r0": c.address, "g1.r1": d.address},
        }
        a.store.set(b"in-g0", b"x", version=hlc.tick())
        c.store.set(b"in-g1", b"y", version=hlc.tick())
        repairer = AntiEntropyRepairer(groups, nslots=8)
        report = repairer.run_once()
        assert report.groups_checked == 2
        assert repairer.converged()
        assert b.store.get(b"in-g0").value == b"x"
        assert d.store.get(b"in-g1").value == b"y"
        # repair never leaks keys across groups
        assert c.store.get(b"in-g0") is None
        assert a.store.get(b"in-g1") is None


class _BuggySet:
    """A member client whose ``set`` has a programming error."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def set(self, *args, **kwargs):
        raise TypeError("bug in set")


class TestErrorHygiene:
    def test_bug_in_set_propagates(self, pair):
        hlc = HybridLogicalClock()
        pair[0].store.set(b"only0", b"x", version=hlc.tick())
        repairer = repairer_for(pair)
        connect = repairer._connect
        repairer._connect = lambda endpoint: (
            _BuggySet(connect(endpoint))
            if endpoint == pair[1].address else connect(endpoint)
        )
        with pytest.raises(TypeError):
            repairer.run_once()

    def test_server_error_reply_counts_as_failed(self, pair):
        # the source's slabs hold an item the target's 64 KiB slabs refuse:
        # the repair SET is answered SERVER_ERROR
        big = KVStore(
            memory_limit=4 * 1024 * 1024, slab_size=1024 * 1024,
            policy_factory=GDWheelPolicy, hlc=HybridLogicalClock(),
        )
        big.set(b"huge", b"h" * (200 * 1024), version=HybridLogicalClock().tick())
        server = ServingThread(big)
        try:
            repairer = AntiEntropyRepairer(
                {"g0": {"g0.r0": server.address, "g0.r1": pair[1].address}},
                nslots=4,
            )
            report = repairer.run_once()
        finally:
            server.stop()
        assert report.keys_failed == 1
        assert report.keys_repaired == 0
        assert pair[1].store.get(b"huge") is None
