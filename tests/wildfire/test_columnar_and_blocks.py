"""Tests for the columnar block format and the block catalog."""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.entry import RID, Zone
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.blockstore import BlockCatalog, BlockNotFound
from repro.wildfire.columnar import DataBlock
from repro.wildfire.record import Record
from repro.wildfire.schema import TableSchema


def schema():
    return TableSchema(
        name="t",
        columns=(
            ColumnSpec("k"),
            ColumnSpec("name", ColumnType.STRING),
            ColumnSpec("score", ColumnType.FLOAT64),
        ),
        primary_key=("k",),
    )


def records(n, ts_start=1):
    return tuple(
        Record(values=(i, f"name-{i}", i * 1.5), begin_ts=ts_start + i)
        for i in range(n)
    )


class TestRecord:
    def test_visibility(self):
        record = Record(values=(1, "a", 0.0), begin_ts=10, end_ts=20)
        assert not record.visible_at(9)
        assert record.visible_at(10)
        assert record.visible_at(19)
        assert not record.visible_at(20)

    def test_open_ended_visibility(self):
        record = Record(values=(1, "a", 0.0), begin_ts=10)
        assert record.visible_at(1 << 50)

    def test_with_helpers_are_pure(self):
        record = Record(values=(1, "a", 0.0), begin_ts=10)
        updated = record.with_end_ts(20)
        assert record.end_ts is None and updated.end_ts == 20


class TestColumnarRoundtrip:
    def test_roundtrip_with_hidden_columns(self):
        s = schema()
        rid = RID(Zone.POST_GROOMED, 3, 1)
        block = DataBlock(
            zone=Zone.GROOMED, block_id=7,
            records=(
                Record((1, "a", 1.5), begin_ts=10),
                Record((2, "b\x00c", -2.5), begin_ts=11, end_ts=20, prev_rid=rid),
            ),
        )
        decoded = DataBlock.from_bytes(s, block.to_bytes(s))
        assert decoded == block

    def test_empty_block(self):
        s = schema()
        block = DataBlock(zone=Zone.GROOMED, block_id=0, records=())
        assert DataBlock.from_bytes(s, block.to_bytes(s)) == block

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            DataBlock.from_bytes(schema(), b"JUNKJUNKJUNK")

    def test_rid_by_begin_ts_mints_one_rid_per_offset(self):
        block = DataBlock(Zone.GROOMED, 5, records((3)))
        assert block.rid_by_begin_ts() == {
            record.begin_ts: RID(Zone.GROOMED, 5, offset)
            for offset, record in enumerate(block.records)
        }
        assert len(block.rid_by_begin_ts()) == 3

    def test_column_stats(self):
        s = schema()
        block = DataBlock(Zone.GROOMED, 0, records(5))
        stats = block.column_stats(s, "k")
        assert (stats.min_value, stats.max_value) == (0, 4)


class TestBlockCatalog:
    def test_groomed_ids_monotonic(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = catalog.store_groomed(records(2))
        second = catalog.store_groomed(records(2))
        assert (first.block_id, second.block_id) == (0, 1)
        assert catalog.max_groomed_id == 1

    def test_fetch_record_applies_end_ts_overlay(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        block = catalog.store_groomed(records(1))
        rid = RID(block.zone, block.block_id, 0)
        assert catalog.fetch_record(rid).end_ts is None
        catalog.set_end_ts(rid, 99)
        assert catalog.fetch_record(rid).end_ts == 99

    def test_blocks_survive_local_crash(self):
        hierarchy = StorageHierarchy()
        catalog = BlockCatalog(schema(), hierarchy)
        block = catalog.store_groomed(records(3))
        hierarchy.crash_local_tiers()
        catalog.forget_decoded()
        fetched = catalog.get_block(Zone.GROOMED, block.block_id)
        assert fetched.record_count == 3

    def test_reserved_post_groomed_ids(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = catalog.reserve_post_groomed_ids(3)
        assert first == 0
        catalog.store_post_groomed(records(1), block_id=1)
        auto = catalog.store_post_groomed(records(1))
        assert auto.block_id == 3

    def test_unreserved_explicit_id_rejected(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        with pytest.raises(ValueError):
            catalog.store_post_groomed(records(1), block_id=5)

    def test_deprecation_lifecycle(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        for _ in range(3):
            catalog.store_groomed(records(1))
        catalog.deprecate_groomed([0, 1])
        deleted = catalog.delete_deprecated_up_to(0)
        assert deleted == [0]
        with pytest.raises(BlockNotFound):
            catalog.get_block(Zone.GROOMED, 0)
        # Block 1 is deprecated but above the bound: still readable.
        assert catalog.get_block(Zone.GROOMED, 1).record_count == 1
        assert catalog.live_groomed_ids() == [1, 2]

    def test_missing_block_raises(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        with pytest.raises(BlockNotFound):
            catalog.get_block(Zone.GROOMED, 42)
