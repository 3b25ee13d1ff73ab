"""Unit tests for the three storage tiers."""

import pytest

from repro.storage.block import Block, BlockId
from repro.storage.memory import MemoryTier
from repro.storage.metrics import IOStats
from repro.storage.shared import SharedStorage, SharedStorageError
from repro.storage.ssd import SSDCapacityError, SSDTier
from repro.storage.tier import LatencyModel


def blk(namespace: str, ordinal: int, size: int = 8) -> Block:
    return Block(BlockId(namespace, ordinal), bytes(size))


class TestMemoryTier:
    def test_write_read_roundtrip(self):
        tier = MemoryTier()
        tier.write(blk("a", 0))
        assert tier.read(BlockId("a", 0)).payload == bytes(8)

    def test_read_missing_returns_none(self):
        tier = MemoryTier()
        assert tier.read(BlockId("nope", 0)) is None

    def test_overwrite_allowed(self):
        tier = MemoryTier()
        tier.write(blk("a", 0, 8))
        tier.write(Block(BlockId("a", 0), b"new-bytes"))
        assert tier.read(BlockId("a", 0)).payload == b"new-bytes"

    def test_delete(self):
        tier = MemoryTier()
        tier.write(blk("a", 0))
        assert tier.delete(BlockId("a", 0)) is True
        assert tier.delete(BlockId("a", 0)) is False
        assert not tier.contains(BlockId("a", 0))

    def test_delete_namespace_removes_all_ordinals(self):
        tier = MemoryTier()
        for i in range(3):
            tier.write(blk("a", i))
        tier.write(blk("b", 0))
        assert tier.delete_namespace("a") == 3
        assert tier.contains(BlockId("b", 0))
        assert tier.namespaces() == ["b"]

    def test_used_bytes(self):
        tier = MemoryTier()
        tier.write(blk("a", 0, 100))
        tier.write(blk("a", 1, 50))
        assert tier.used_bytes == 150


class TestSSDTier:
    def test_capacity_enforced(self):
        tier = SSDTier(capacity_bytes=100)
        tier.write(blk("a", 0, 80))
        with pytest.raises(SSDCapacityError):
            tier.write(blk("a", 1, 30))

    def test_overwrite_counts_delta_not_sum(self):
        tier = SSDTier(capacity_bytes=100)
        tier.write(blk("a", 0, 80))
        tier.write(blk("a", 0, 90))  # replaces; delta=10 fits
        assert tier.used_bytes == 90

    def test_delete_frees_capacity(self):
        tier = SSDTier(capacity_bytes=100)
        tier.write(blk("a", 0, 80))
        tier.delete(BlockId("a", 0))
        assert tier.used_bytes == 0
        tier.write(blk("a", 1, 100))

    def test_would_fit_and_free_bytes(self):
        tier = SSDTier(capacity_bytes=100)
        tier.write(blk("a", 0, 60))
        assert tier.would_fit(40)
        assert not tier.would_fit(41)
        assert tier.capacity_bytes - tier.used_bytes == 40

    def test_unbounded_by_default(self):
        tier = SSDTier()
        tier.write(blk("a", 0, 1 << 20))
        assert tier.capacity_bytes is None
        assert tier.utilization() == 0.0
        assert tier.would_fit(1 << 40)

    def test_utilization(self):
        tier = SSDTier(capacity_bytes=200)
        tier.write(blk("a", 0, 50))
        assert tier.utilization() == pytest.approx(0.25)


class TestSharedStorage:
    def test_in_place_update_forbidden(self):
        tier = SharedStorage()
        tier.write(blk("a", 0))
        with pytest.raises(SharedStorageError):
            tier.write(blk("a", 0))

    def test_delete_then_rewrite_allowed(self):
        tier = SharedStorage()
        tier.write(blk("a", 0))
        tier.delete(BlockId("a", 0))
        tier.write(blk("a", 0))  # a *new* object with the same name

    def test_namespace_block_ids_sorted(self):
        tier = SharedStorage()
        for i in (2, 0, 1):
            tier.write(blk("a", i))
        assert [b.ordinal for b in tier.namespace_block_ids("a")] == [0, 1, 2]

    def test_object_count_is_namespaces(self):
        tier = SharedStorage()
        tier.write(blk("a", 0))
        tier.write(blk("a", 1))
        tier.write(blk("b", 0))
        assert len(tier.namespaces()) == 2

    def test_write_amplification_counter_is_cumulative(self):
        tier = SharedStorage()
        tier.write(blk("a", 0, 100))
        tier.delete(BlockId("a", 0))
        tier.write(blk("a", 0, 100))
        assert tier.write_amplification_bytes == 200
        assert tier.used_bytes == 100


class TestLatencyAccounting:
    def test_tiers_charge_their_models(self):
        stats = IOStats()
        memory = MemoryTier(stats=stats)
        ssd = SSDTier(stats=stats)
        shared = SharedStorage(stats=stats)
        for tier in (memory, ssd, shared):
            tier.write(blk("x", 0, 1000))
            tier.read(BlockId("x", 0))
        snap = stats.snapshot()
        assert snap["memory"].sim_ns < snap["ssd"].sim_ns < snap["shared"].sim_ns
        assert snap["shared"].reads == 1
        assert snap["shared"].bytes_written == 1000

    def test_latency_model_cost(self):
        model = LatencyModel(fixed_ns=100, per_byte_ns=2.0)
        assert model.cost(0) == 100
        assert model.cost(50) == 200

    def test_a_tier_repointed_at_another_ledger_charges_that_one(self):
        first, second = IOStats(), IOStats()
        tier = SSDTier(stats=first)
        tier.write(blk("x", 0, 10))
        tier.stats = second  # what StorageHierarchy does to tiers it is given
        tier.write(blk("x", 1, 10))
        second.reset()
        tier.read(BlockId("x", 1))
        assert first.tier("ssd").writes == 1
        assert second.tier("ssd") == second.snapshot()["ssd"]
        assert (second.tier("ssd").writes, second.tier("ssd").reads) == (0, 1)

    def test_delete_many_charges_the_blocks_it_held_at_once(self):
        stats = IOStats()
        tier = MemoryTier(stats=stats)
        for i in range(3):
            tier.write(blk("a", i, 10))
        before = stats.tier("memory").sim_ns
        gone = tier.delete_many([BlockId("a", 0), BlockId("b", 7), BlockId("a", 2)])
        assert gone == [BlockId("a", 0), BlockId("a", 2)]
        assert stats.tier("memory").deletes == 2
        assert stats.tier("memory").sim_ns - before == 2 * 100  # fixed write ns
        assert tier.used_bytes == 10 and tier.block_ids() == [BlockId("a", 1)]

    def test_misses_charge_nothing(self):
        stats = IOStats()
        tier = MemoryTier(stats=stats)
        assert tier.read(BlockId("missing", 0)) is None
        assert stats.tier("memory").reads == 0
