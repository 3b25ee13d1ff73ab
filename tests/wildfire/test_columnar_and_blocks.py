"""Tests for the columnar block format and the block catalog."""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.entry import RID, Zone
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.blockstore import BlockCatalog, BlockNotFound
from repro.wildfire.columnar import DataBlock, encode_columns
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


def encoded(records):
    """What the groomer hands the catalog beside a batch's records."""
    return encode_columns(schema(), [record.values for record in records])


def store_groomed(catalog, records):
    return catalog.store_groomed(records, encoded(records))


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
        payload = block.to_bytes(encoded(block.records))
        assert DataBlock.from_bytes(s, payload) == block

    def test_empty_block(self):
        s = schema()
        block = DataBlock(zone=Zone.GROOMED, block_id=0, records=())
        assert DataBlock.from_bytes(s, block.to_bytes(encoded(()))) == block

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

    def test_decode_rebuilds_every_hidden_column(self):
        s = schema()
        rid = RID(Zone.POST_GROOMED, 2**40, 7)
        block = DataBlock(Zone.POST_GROOMED, 9, tuple(
            Record((i, f"n{i}", i / 3), begin_ts=2**63 + i,
                   end_ts=None if i % 2 else 2**64 - 1 - i,
                   prev_rid=None if i % 3 else rid._replace(offset=i))
            for i in range(7)
        ))
        decoded = DataBlock.from_bytes(s, block.to_bytes(encoded(block.records)))
        assert decoded == block
        assert all(type(r.values) is tuple for r in decoded.records)


class TestBlockCatalog:
    def test_groomed_ids_monotonic(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = store_groomed(catalog, records(2))
        second = store_groomed(catalog, records(2))
        assert (first.block_id, second.block_id) == (0, 1)
        assert catalog.max_groomed_id == 1

    def test_fetch_record_applies_end_ts_overlay(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        block = store_groomed(catalog, records(1))
        rid = RID(block.zone, block.block_id, 0)
        assert catalog.fetch_record(rid).end_ts is None
        catalog.set_end_ts(rid, 99)
        assert catalog.fetch_record(rid).end_ts == 99

    def test_blocks_survive_local_crash(self):
        hierarchy = StorageHierarchy()
        catalog = BlockCatalog(schema(), hierarchy)
        block = store_groomed(catalog, records(3))
        hierarchy.crash_local_tiers()
        catalog.forget_decoded()
        fetched = catalog.get_block(Zone.GROOMED, block.block_id)
        assert fetched.record_count == 3

    def test_reserved_post_groomed_ids(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = catalog.reserve_post_groomed_ids(3)
        assert first == 0
        block = catalog.store_post_groomed(records(1), block_id=1)
        assert block.block_id == 1
        assert catalog.live_post_groomed_ids() == [1]
        assert catalog.reserve_post_groomed_ids(1) == 3

    def test_unreserved_explicit_id_rejected(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        with pytest.raises(ValueError):
            catalog.store_post_groomed(records(1), block_id=5)

    def test_deprecation_lifecycle(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        for _ in range(3):
            store_groomed(catalog, records(1))
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
