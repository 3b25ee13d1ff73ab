"""Tests for the columnar block format and the block catalog."""

from dataclasses import replace

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.encoding import encode_ts_desc
from repro.core.entry import RID, Zone
from repro.storage.block import BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.blockstore import BlockCatalog, BlockNotFound
from repro.wildfire.columnar import DataBlock, encode_columns
from repro.wildfire.record import Record
from repro.wildfire.schema import TableSchema

from tests.conftest import block_records, groomed_block


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


def rows(n):
    return tuple((i, f"name-{i}", i * 1.5) for i in range(n))


def begin_ts(n, ts_start=1):
    return tuple(range(ts_start, ts_start + n))


def encoded(rows):
    """What the groomer hands the catalog beside a batch's rows."""
    return encode_columns(schema(), rows)


def store_groomed(catalog, n):
    return catalog.store_groomed(rows(n), begin_ts(n), encoded(rows(n)))


def store_post_groomed(catalog, n, block_id):
    return catalog.store_post_groomed(
        rows(n), begin_ts(n), (None,) * n, block_id, encoded(rows(n))
    )


class TestColumnarRoundtrip:
    def test_roundtrip_with_hidden_columns(self):
        s = schema()
        block = DataBlock(
            zone=Zone.GROOMED, block_id=7,
            rows=((1, "a", 1.5), (2, "b\x00c", -2.5)),
            begin_ts=(10, 11),
            end_ts=(None, 20),
            prev_rids=(None, (int(Zone.POST_GROOMED), 3, 1)),
        )
        payload = block.to_bytes(encoded(block.rows))
        assert DataBlock.from_bytes(s, payload) == block
        assert block_records(block)[1] == Record(
            (2, "b\x00c", -2.5), 11, 20, RID(Zone.POST_GROOMED, 3, 1)
        )

    def test_empty_block(self):
        s = schema()
        block = groomed_block(0, (), ())
        assert DataBlock.from_bytes(s, block.to_bytes(encoded(()))) == block

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            DataBlock.from_bytes(schema(), b"JUNKJUNKJUNK")

    def test_rid_splices_pair_each_suffix_with_its_rid(self):
        block = groomed_block(5, rows(3), begin_ts(3))
        assert dict(block.rid_splices()) == {
            encode_ts_desc(ts): RID(Zone.GROOMED, 5, offset).to_bytes()
            for offset, ts in enumerate(block.begin_ts)
        }
        assert len(dict(block.rid_splices())) == 3

    def test_decode_rebuilds_every_hidden_column(self):
        s = schema()
        block = DataBlock(
            Zone.POST_GROOMED, 9,
            tuple((i, f"n{i}", i / 3) for i in range(7)),
            tuple(2**63 + i for i in range(7)),
            tuple(None if i % 2 else 2**64 - 1 - i for i in range(7)),
            tuple(None if i % 3 else (int(Zone.POST_GROOMED), 2**40, i) for i in range(7)),
        )
        decoded = DataBlock.from_bytes(s, block.to_bytes(encoded(block.rows)))
        assert decoded == block
        assert all(type(row) is tuple for row in decoded.rows)
        assert all(
            prev is None or type(prev) is tuple and type(prev[0]) is int
            for prev in decoded.prev_rids
        )


class TestBlockCatalog:
    def test_groomed_ids_monotonic(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = store_groomed(catalog, 2)
        second = store_groomed(catalog, 2)
        assert (first.block_id, second.block_id) == (0, 1)
        assert catalog.max_groomed_id == 1

    def test_fetch_record_applies_end_ts_overlay(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        block = store_groomed(catalog, 1)
        rid = RID(block.zone, block.block_id, 0)
        assert catalog.fetch_record(rid).end_ts is None
        catalog.update_end_ts({rid: 99})
        assert catalog.fetch_record(rid).end_ts == 99
        assert catalog.fetch_record(rid) == Record(rows(1)[0], 1, 99)
        # The batched fetch is the typed path's: values and beginTS only.
        assert catalog.fetch_records([rid, rid]) == [(rows(1)[0], 1)] * 2
        assert catalog.export_end_ts_overlay() == {rid: 99}

    def test_blocks_survive_local_crash(self):
        hierarchy = StorageHierarchy()
        catalog = BlockCatalog(schema(), hierarchy)
        block = store_groomed(catalog, 3)
        hierarchy.crash_local_tiers()
        catalog.forget_decoded()
        fetched = catalog.get_block(Zone.GROOMED, block.block_id)
        assert fetched.rows == rows(3)

    @pytest.mark.parametrize("partition_key", [(), ("name",)])
    def test_a_groomed_block_keeps_the_bytes_the_tiers_hold(self, partition_key):
        """Stored or decoded after a crash, a groomed block keeps its
        payload (the tiers' own object, no copy) and where its user values
        start in it: every value's on a table with a partition key, so any
        run of versions slices out, else every column's, so only whole
        columns do.  A post-groomed block keeps neither."""
        hierarchy = StorageHierarchy()
        catalog = BlockCatalog(replace(schema(), partition_key=partition_key), hierarchy)
        stored = store_groomed(catalog, 4)
        persisted = hierarchy.shared.read(BlockId(
            catalog.namespace_of(Zone.GROOMED, stored.block_id), 0)).payload
        assert stored.payload is persisted
        hierarchy.crash_local_tiers()
        catalog.forget_decoded()
        decoded = catalog.get_block(Zone.GROOMED, stored.block_id)
        assert decoded.payload is persisted
        assert stored.bounds == decoded.bounds
        assert len(decoded.bounds) == (13 if partition_key else 4)
        columns = encoded(rows(4))
        for first in range(4):
            for stop in range(first + 1, 5):
                for block in (stored, decoded):
                    if partition_key or (first, stop) == (0, 4):
                        assert block.column_bytes(first, stop) == [
                            b"".join(column[first:stop]) for column in columns
                        ]
                    else:
                        with pytest.raises(ValueError, match="whole columns only"):
                            block.column_bytes(first, stop)
        catalog.reserve_post_groomed_ids(1)
        store_post_groomed(catalog, 2, block_id=0)
        catalog.forget_decoded()
        post_groomed = catalog.get_block(Zone.POST_GROOMED, 0)
        assert post_groomed.payload == b"" and post_groomed.bounds == ()

    def test_reserved_post_groomed_ids(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        first = catalog.reserve_post_groomed_ids(3)
        assert first == 0
        block = store_post_groomed(catalog, 1, block_id=1)
        assert block.block_id == 1
        assert catalog.live_post_groomed_ids() == [1]
        assert catalog.reserve_post_groomed_ids(1) == 3

    def test_unreserved_explicit_id_rejected(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        with pytest.raises(ValueError):
            store_post_groomed(catalog, 1, block_id=5)

    def test_deprecation_lifecycle(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        for _ in range(3):
            store_groomed(catalog, 1)
        catalog.deprecate_groomed([0, 1])
        deleted = catalog.delete_deprecated_up_to(0)
        assert deleted == [0]
        with pytest.raises(BlockNotFound):
            catalog.get_block(Zone.GROOMED, 0)
        # Block 1 is deprecated but above the bound: still readable.
        assert len(catalog.get_block(Zone.GROOMED, 1).rows) == 1
        assert catalog.live_groomed_ids() == [1, 2]

    def test_missing_block_raises(self):
        catalog = BlockCatalog(schema(), StorageHierarchy())
        with pytest.raises(BlockNotFound):
            catalog.get_block(Zone.GROOMED, 42)
