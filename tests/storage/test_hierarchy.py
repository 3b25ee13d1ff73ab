"""Tests for the composed storage hierarchy."""

import pytest

from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import BlockNotFoundError, StorageHierarchy
from repro.storage.ssd import SSDTier


def blk(namespace: str, ordinal: int, size: int = 16) -> Block:
    return Block(BlockId(namespace, ordinal), bytes(size))


class TestWritePaths:
    def test_persisted_goes_to_shared_and_ssd(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0))
        assert h.shared.contains(BlockId("r", 0))
        assert h.ssd.contains(BlockId("r", 0))

    def test_persisted_without_write_through(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0), write_through_ssd=False)
        assert h.shared.contains(BlockId("r", 0))
        assert not h.ssd.contains(BlockId("r", 0))

    def test_cached_only_never_touches_shared(self):
        h = StorageHierarchy()
        h.write_cached_only(blk("r", 0))
        assert h.memory.contains(BlockId("r", 0))
        assert not h.shared.contains(BlockId("r", 0))
        assert not h.ssd.contains(BlockId("r", 0))


class TestReadPath:
    def test_read_prefers_memory(self):
        h = StorageHierarchy()
        h.write_cached_only(blk("r", 0))
        before = h.stats.tier("ssd").reads
        h.read(BlockId("r", 0))
        assert h.stats.tier("ssd").reads == before

    def test_shared_hit_promotes_to_ssd(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0), write_through_ssd=False)
        assert not h.ssd.contains(BlockId("r", 0))
        h.read(BlockId("r", 0))
        assert h.ssd.contains(BlockId("r", 0))
        # Second read is a cache hit: shared reads stay at 1.
        h.read(BlockId("r", 0))
        assert h.stats.tier("shared").reads == 1

    def test_promotion_respects_ssd_capacity(self):
        h = StorageHierarchy(ssd=SSDTier(capacity_bytes=8))
        h.shared.write(blk("r", 0, 16))
        block = h.read(BlockId("r", 0))
        assert block.size == 16
        assert not h.ssd.contains(BlockId("r", 0))

    def test_missing_raises(self):
        h = StorageHierarchy()
        with pytest.raises(BlockNotFoundError):
            h.read(BlockId("missing", 0))


class TestCachePrimitives:
    def test_drop_from_cache_keeps_shared(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0))
        assert h.drop_from_cache([BlockId("r", 0)]) == 1
        assert h.shared.contains(BlockId("r", 0))
        assert not h.is_cached(BlockId("r", 0))

    def test_drop_from_cache_takes_a_batch_and_counts_blocks_not_copies(self):
        h = StorageHierarchy()
        for i in range(3):
            h.write_persisted(blk("r", i))
        h.memory.write(blk("m", 0))  # in both tiers
        h.ssd.admit(blk("m", 0))
        before = h.stats.tier("ssd")
        ids = [BlockId("r", 0), BlockId("r", 2), BlockId("m", 0), BlockId("x", 9)]
        assert h.drop_from_cache(ids) == 3
        after = h.stats.tier("ssd")
        assert after.deletes - before.deletes == 3
        assert h.stats.tier("memory").deletes == 1
        assert h.ssd.block_ids() == [BlockId("r", 1)]
        with pytest.raises(TypeError):  # one id is a tuple too: refuse it
            h.drop_from_cache(BlockId("r", 1))

    def test_load_into_cache(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0), write_through_ssd=False)
        assert h.load_into_cache(BlockId("r", 0)) is True
        assert h.ssd.contains(BlockId("r", 0))

    def test_load_missing_returns_false(self):
        h = StorageHierarchy()
        assert h.load_into_cache(BlockId("missing", 0)) is False

    def test_delete_namespace_everywhere(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0))
        h.write_cached_only(blk("r", 1))
        h.delete_namespace("r")
        assert not h.shared.contains(BlockId("r", 0))
        assert not h.memory.contains(BlockId("r", 1))


class TestCrash:
    def test_crash_loses_local_keeps_shared(self):
        h = StorageHierarchy()
        h.write_persisted(blk("p", 0))
        h.write_cached_only(blk("np", 0))
        h.crash_local_tiers()
        assert h.shared.contains(BlockId("p", 0))
        assert not h.is_cached(BlockId("p", 0))
        with pytest.raises(BlockNotFoundError):
            h.read(BlockId("np", 0))

    def test_stats_ledger_is_shared_across_tiers(self):
        h = StorageHierarchy()
        h.write_persisted(blk("r", 0))
        snap = h.stats.snapshot()
        assert "shared" in snap and "ssd" in snap
