"""Replicated ShardSupervisor: groups, quorum serving, rebuild-on-respawn."""

import asyncio
import time

import pytest

from repro.aio.backoff import RetryPolicy
from repro.protocol.commands import ProtocolError
from repro.replica.pool import GroupPool
from repro.shard import ShardSupervisor

RESPAWN_RETRY = RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=1.0)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def supervisor():
    with ShardSupervisor(
        num_shards=2,
        replication=2,
        memory_limit=8 * 1024 * 1024,
        slab_size=64 * 1024,
        monitor_interval=0.1,
    ) as sup:
        yield sup


class TestTopology:
    def test_member_naming_and_groups(self, supervisor):
        assert supervisor.group_names == ["shard-0", "shard-1"]
        assert supervisor.members_of("shard-0") == [
            "shard-0.r0", "shard-0.r1"
        ]
        assert sorted(supervisor.endpoints()) == [
            "shard-0.r0", "shard-0.r1", "shard-1.r0", "shard-1.r1"
        ]
        groups = supervisor.group_endpoints()
        assert set(groups) == {"shard-0", "shard-1"}
        assert all(len(members) == 2 for members in groups.values())

    def test_r1_member_names_equal_group_names(self):
        # back-compat: an unreplicated supervisor's worker names (and so
        # its tier directories, trace files, ring points) are unchanged
        sup = ShardSupervisor(num_shards=2, replication=1)
        assert sup.shard_names == ["shard-0", "shard-1"]
        assert sup.group_names == sup.shard_names

    def test_ports_sized_by_members(self):
        with pytest.raises(ValueError):
            ShardSupervisor(num_shards=2, replication=2, ports=[1, 2])

    def test_write_quorum_validated(self):
        with pytest.raises(ValueError):
            ShardSupervisor(num_shards=1, replication=2, write_quorum=3)


class TestReplicatedServing:
    def test_connect_pool_is_replicated_and_quorum_writes_land(
        self, supervisor
    ):
        async def main():
            pool = supervisor.connect_pool(write_quorum=2)
            assert isinstance(pool, GroupPool)
            async with pool:
                for i in range(60):
                    await pool.set(b"qr-%d" % i, b"val-%d" % i, cost=i % 7)
                found = await pool.multi_get(
                    [b"qr-%d" % i for i in range(60)]
                )
                assert found == {
                    b"qr-%d" % i: b"val-%d" % i for i in range(60)
                }

        run(main())
        assert supervisor.replicas_converged()

    def test_repair_replicas_reports_clean_fleet(self, supervisor):
        report = supervisor.repair_replicas()
        assert report.groups_checked == 2
        assert report.errors == []


class TestRebuildOnRespawn:
    def test_killed_member_bootstraps_from_peer_and_converges(
        self, supervisor
    ):
        async def write():
            async with supervisor.connect_pool(write_quorum=2) as pool:
                for i in range(80):
                    await pool.set(b"boot-%d" % i, b"val-%d" % i, cost=3)

        run(write())
        victim = supervisor.members_of("shard-0")[0]
        supervisor.kill_worker(victim)
        assert supervisor.wait_for_respawn(victim, timeout=20)
        # the respawned member copied its range BEFORE serving: digests
        # match without any anti-entropy sweep
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if supervisor.replicas_converged():
                break
            time.sleep(0.1)
        assert supervisor.replicas_converged()

        async def read():
            async with supervisor.connect_pool(
                retry=RESPAWN_RETRY
            ) as pool:
                found = await pool.multi_get(
                    [b"boot-%d" % i for i in range(80)]
                )
                assert len(found) == 80

        run(read())

    def test_cluster_top_shows_group_column(self, supervisor):
        table = supervisor.cluster_top(seconds=0.2)
        header = table.splitlines()[1]
        assert "group" in header
        assert "shard-0.r0" in table


class TestShutdownRespawnRace:
    def test_worker_dying_during_stop_is_not_resurrected(self):
        # regression: a worker killed in the window between the monitor's
        # liveness sweep and stop() used to be respawned after its
        # SIGTERM, leaking a serving process past supervisor shutdown
        for _ in range(3):
            sup = ShardSupervisor(
                num_shards=1,
                replication=1,
                memory_limit=4 * 1024 * 1024,
                monitor_interval=0.05,
            )
            sup.start()
            try:
                sup.kill_worker(sup.shard_names[0])
                # stop immediately: the monitor may be mid-_respawn
                sup.stop()
                # no worker may be alive (old or freshly resurrected)
                deadline = time.monotonic() + 3
                while time.monotonic() < deadline:
                    if not any(sup.alive().values()):
                        break
                    time.sleep(0.05)
                assert not any(sup.alive().values())
            finally:
                sup.stop()

    def test_respawn_entry_check_refuses_after_stop(self):
        sup = ShardSupervisor(num_shards=1, monitor_interval=0.05)
        sup.start()
        handle = sup._handles[sup.shard_names[0]]
        sup.stop()
        # direct call models the monitor thread losing the race: the
        # entry check must refuse outright, never spawn
        pids_before = sup.pids()
        sup._respawn(handle)
        assert sup.pids() == pids_before
        assert not any(sup.alive().values())


class TestAntiEntropyLoop:
    """The background sweep absorbs respawn races and nothing else."""

    def _sweeps(self, monkeypatch, first_error):
        sup = ShardSupervisor(
            num_shards=1, replication=2, anti_entropy_interval=0.001
        )
        calls = []

        def sweep():
            calls.append(len(calls))
            if len(calls) == 1:
                raise first_error
            sup._stopping.set()

        monkeypatch.setattr(sup, "repair_replicas", sweep)
        return sup, calls

    @pytest.mark.parametrize(
        "error", [OSError("member mid-respawn"), ProtocolError("torn reply")]
    )
    def test_respawn_race_is_absorbed_and_next_sweep_runs(
        self, monkeypatch, error
    ):
        sup, calls = self._sweeps(monkeypatch, error)
        sup._anti_entropy_loop()
        assert calls == [0, 1]

    def test_bug_propagates(self, monkeypatch):
        sup, calls = self._sweeps(monkeypatch, TypeError("bug"))
        with pytest.raises(TypeError):
            sup._anti_entropy_loop()
        assert calls == [0]
