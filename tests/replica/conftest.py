"""Shared fixtures: in-process TCP replica members with HLC-armed stores."""

import pytest

from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.replica.hlc import HybridLogicalClock
from tests.serving import ServingThread


class Member:
    """One replica member: an HLC-armed store behind a real TCP listener."""

    def __init__(self, limit=4 * 1024 * 1024):
        self.store = KVStore(
            memory_limit=limit,
            slab_size=64 * 1024,
            policy_factory=GDWheelPolicy,
            hlc=HybridLogicalClock(),
        )
        self.server = ServingThread(self.store)
        # kept after stop(): tests route to a downed member's old port
        self.address = self.server.address

    def stop(self):
        self.server.stop()


@pytest.fixture
def members():
    """Four members — enough for two groups of two."""
    fleet = [Member() for _ in range(4)]
    yield fleet
    for member in fleet:
        member.stop()


@pytest.fixture
def pair(members):
    """One replica group of two members."""
    return members[:2]
