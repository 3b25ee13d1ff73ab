"""Tests for run building, including the paper's Figure 2 offset array."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, IndexDefinition, i1_definition
from repro.core.encoding import high_bits
from repro.core.entry import IndexEntry, RID, Zone
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries, run_entries


@pytest.fixture
def builder():
    return RunBuilder(i1_definition(), StorageHierarchy(), data_block_bytes=512)


class TestSorting:
    def test_entries_sorted_by_run_order(self, builder):
        definition = builder.definition
        entries = make_entries(definition, [5, 3, 9, 1, 7])
        run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
        keys = [e.sort_key(definition) for e in run_entries(run)]
        assert keys == sorted(keys)

    def test_versions_of_same_key_newest_first(self, builder):
        definition = builder.definition
        versions = [
            IndexEntry.create(definition, (7,), (7,), (1,), ts, RID(Zone.GROOMED, 0, ts))
            for ts in (5, 20, 10)
        ]
        run = builder.build("r", versions, Zone.GROOMED, 0, 0, 0)
        begin_ts = [e.begin_ts for e in run_entries(run)]
        assert begin_ts == [20, 10, 5]

    def test_presorted_skips_resort(self, builder):
        definition = builder.definition
        entries = sorted(
            make_entries(definition, range(20)),
            key=lambda e: e.sort_key(definition),
        )
        run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0, presorted=True)
        keys = [e.sort_key(definition) for e in run_entries(run)]
        assert keys == sorted(keys)


class TestOffsetArray:
    def test_paper_figure_2b_semantics(self, builder):
        """offset[b] = ordinal of first entry with hash high-bits >= b."""
        definition = builder.definition
        run = builder.build(
            "r", make_entries(definition, range(64)), Zone.GROOMED, 0, 0, 0
        )
        offsets = run.header.offset_array
        assert len(offsets) == definition.offset_array_size
        nbits = definition.hash_bits
        ordered = run_entries(run)
        for bucket, offset in enumerate(offsets):
            expected = sum(
                1 for e in ordered if high_bits(e.hash_value, nbits) < bucket
            )
            assert offset == expected

    def test_offset_array_monotone(self, builder):
        entries = make_entries(builder.definition, range(100))
        offsets = builder.build(
            "r", entries, Zone.GROOMED, 0, 0, 0
        ).header.offset_array
        assert list(offsets) == sorted(offsets)
        assert offsets[0] == 0

    def test_no_offset_array_without_equality_columns(self):
        definition = IndexDefinition(sort_columns=(ColumnSpec("s"),))
        builder = RunBuilder(definition, StorageHierarchy())
        entries = [
            IndexEntry.create(definition, (), (k,), (), 1, RID(Zone.GROOMED, 0, k))
            for k in range(10)
        ]
        run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
        assert run.header.offset_array == ()


class TestBlockSlicing:
    def test_blocks_respect_target_size(self, builder):
        entries = make_entries(builder.definition, range(200))
        run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
        for meta in run.header.block_meta:
            assert meta.size_bytes <= 512 + 128  # one entry of slack

    def test_single_entry_larger_than_block_still_stored(self):
        definition = i1_definition()
        builder = RunBuilder(definition, StorageHierarchy(), data_block_bytes=8)
        run = builder.build(
            "r", make_entries(definition, [1]), Zone.GROOMED, 0, 0, 0
        )
        assert run.entry_count == 1

    def test_block_meta_counts_sum_to_total(self, builder):
        entries = make_entries(builder.definition, range(137))
        run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
        assert sum(m.entry_count for m in run.header.block_meta) == 137

    def test_empty_run(self, builder):
        run = builder.build("r", [], Zone.GROOMED, 0, 0, 0)
        assert run.entry_count == 0
        assert run.header.num_data_blocks == 0
        assert run_entries(run) == []

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            RunBuilder(i1_definition(), StorageHierarchy(), data_block_bytes=0)


class TestWritePaths:
    def test_persisted_run_reaches_shared_storage(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(i1_definition(), hierarchy)
        run = builder.build(
            "r", make_entries(builder.definition, range(10)),
            Zone.GROOMED, 0, 0, 0, persisted=True,
        )
        for block_id in run.all_block_ids():
            assert hierarchy.shared.contains(block_id)
            assert hierarchy.ssd.contains(block_id)  # write-through default

    def test_persisted_without_write_through(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(i1_definition(), hierarchy)
        run = builder.build(
            "r", make_entries(builder.definition, range(10)),
            Zone.GROOMED, 0, 0, 0, write_through_ssd=False,
        )
        assert not hierarchy.ssd.contains(run.header_block_id())

    def test_non_persisted_run_memory_only(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(i1_definition(), hierarchy)
        run = builder.build(
            "r", make_entries(builder.definition, range(10)),
            Zone.GROOMED, 1, 0, 0, persisted=False,
        )
        for block_id in run.all_block_ids():
            assert hierarchy.memory.contains(block_id)
            assert not hierarchy.shared.contains(block_id)

    def test_ancestor_ids_recorded(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(i1_definition(), hierarchy)
        run = builder.build(
            "r", make_entries(builder.definition, range(5)),
            Zone.GROOMED, 1, 0, 0, persisted=False,
            ancestor_run_ids=("a", "b"),
        )
        assert run.header.ancestor_run_ids == ("a", "b")
