"""Read-intent semantics of the storage hierarchy.

QUERY reads promote shared-storage misses into the SSD cache (the paper's
block-basis transfer); MAINTENANCE reads never do, and both are tracked
in per-intent hit/miss/promotion counters.  The caller names the intent
on each read.  (The promote-everything
``maintenance_read_mode="legacy"`` arm was retired in PR 15; its A10
verdict is frozen in docs/benchmarks.md.)
"""

import threading

import pytest

from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent
from repro.storage.ssd import SSDTier
from tests.conftest import intent_snapshot


def make_hierarchy(**kwargs):
    return StorageHierarchy(**kwargs)


def shared_only_block(hierarchy, name="ns", ordinal=0, size=64):
    block = Block(BlockId(name, ordinal), b"x" * size)
    hierarchy.shared.write(block)
    return block


class TestIntentAdmission:
    def test_query_read_promotes_on_shared_miss(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        out = h.read(block.block_id, intent=ReadIntent.QUERY)
        assert out.payload == block.payload
        assert h.ssd.contains(block.block_id)
        stats = h.stats.intents[ReadIntent.QUERY]
        assert stats.reads == 1
        assert stats.shared_reads == 1
        assert stats.promotions == 1
        assert stats.memory_hits == stats.ssd_hits == 0

    def test_maintenance_read_never_promotes(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        out = h.read(block.block_id, intent=ReadIntent.MAINTENANCE)
        assert out.payload == block.payload
        assert not h.ssd.contains(block.block_id)
        assert not h.memory.contains(block.block_id)
        stats = h.stats.intents[ReadIntent.MAINTENANCE]
        assert stats.reads == 1
        assert stats.shared_reads == 1
        assert stats.promotions == 0
        # The query ledger is untouched.
        assert h.stats.intents[ReadIntent.QUERY].reads == 0

    def test_local_hits_counted_per_intent(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        h.ssd.write(block)
        h.read(block.block_id, intent=ReadIntent.MAINTENANCE)
        stats = h.stats.intents[ReadIntent.MAINTENANCE]
        assert stats.ssd_hits == 1 and stats.shared_reads == 0
        mem_block = Block(BlockId("mem", 0), b"m" * 16)
        h.memory.write(mem_block)
        h.read(mem_block.block_id, intent=ReadIntent.QUERY)
        assert h.stats.intents[ReadIntent.QUERY].memory_hits == 1

    def test_read_many_threads_intent(self):
        h = make_hierarchy()
        blocks = [shared_only_block(h, name=f"ns{i}") for i in range(3)]
        h.read_many([b.block_id for b in blocks], intent=ReadIntent.MAINTENANCE)
        stats = h.stats.intents[ReadIntent.MAINTENANCE]
        assert stats.reads == 3 and stats.promotions == 0
        assert not any(h.ssd.contains(b.block_id) for b in blocks)

    def test_promotion_respects_capacity(self):
        h = make_hierarchy(ssd=SSDTier(capacity_bytes=32))
        block = shared_only_block(h, size=64)
        h.read(block.block_id, intent=ReadIntent.QUERY)
        assert not h.ssd.contains(block.block_id)
        assert h.stats.intents[ReadIntent.QUERY].promotions == 0


class TestIntentPerRead:
    def test_read_without_an_intent_is_a_query_read(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        h.read(block.block_id)
        assert h.ssd.contains(block.block_id)
        assert h.stats.intents[ReadIntent.QUERY].promotions == 1
        assert h.stats.intents[ReadIntent.MAINTENANCE].reads == 0

    def test_concurrent_readers_keep_their_own_intents(self):
        # Nothing about an intent outlives its call: two threads reading
        # side by side are each charged, and admitted, by their own.
        h = make_hierarchy()
        blocks = {
            intent: [shared_only_block(h, f"{intent.name}{i}") for i in range(40)]
            for intent in ReadIntent
        }
        start = threading.Barrier(len(blocks))

        def reader(intent):
            start.wait()
            for _ in range(3):
                for block in blocks[intent]:
                    h.read(block.block_id, intent=intent)

        threads = [
            threading.Thread(target=reader, args=(intent,)) for intent in blocks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        query = h.stats.intents[ReadIntent.QUERY]
        maintenance = h.stats.intents[ReadIntent.MAINTENANCE]
        assert (query.reads, query.shared_reads, query.promotions) == (120, 40, 40)
        assert query.ssd_hits == 80
        assert (maintenance.reads, maintenance.shared_reads) == (120, 120)
        assert maintenance.promotions == 0
        assert all(h.ssd.contains(b.block_id) for b in blocks[ReadIntent.QUERY])
        assert not any(
            h.is_cached(b.block_id) for b in blocks[ReadIntent.MAINTENANCE]
        )


class TestReadShared:
    def test_read_shared_bypasses_local_tiers(self):
        h = make_hierarchy()
        local_only = Block(BlockId("local", 0), b"l" * 16)
        h.ssd.write(local_only)
        assert h.read_shared(local_only.block_id) is None

    def test_read_shared_counts_and_never_promotes(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        out = h.read_shared(block.block_id)
        assert out is not None
        assert not h.ssd.contains(block.block_id)
        stats = h.stats.intents[ReadIntent.MAINTENANCE]
        assert stats.reads == 1 and stats.shared_reads == 1
        assert stats.promotions == 0


class TestLedger:
    def test_reset_clears_intent_counters(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        h.read(block.block_id)
        assert h.stats.intents[ReadIntent.QUERY].reads == 1
        h.stats.reset()
        assert h.stats.intents[ReadIntent.QUERY].reads == 0

    def test_snapshot_diff_and_hit_rate(self):
        h = make_hierarchy()
        block = shared_only_block(h)
        before = h.stats.intents[ReadIntent.QUERY].snapshot()
        h.read(block.block_id)  # miss + promote
        h.read(block.block_id)  # ssd hit
        delta = h.stats.intents[ReadIntent.QUERY].diff(before)
        assert delta.reads == 2
        assert delta.ssd_hits == 1 and delta.shared_reads == 1
        assert delta.local_hit_rate() == 0.5
        snap = intent_snapshot(h.stats)
        assert snap["query"].reads == 2
        assert snap["maintenance"].reads == 0
