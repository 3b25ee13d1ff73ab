"""Tests for the run format: headers, synopses, data blocks, navigation."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.run import (
    ColumnRange,
    DataBlockView,
    IndexRun,
    RunHeader,
    Synopsis,
    encode_data_block,
)
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import entry_at, make_entries, run_entries


@pytest.fixture
def built_run():
    definition = i1_definition()
    hierarchy = StorageHierarchy()
    builder = RunBuilder(definition, hierarchy, data_block_bytes=256)
    entries = make_entries(definition, list(range(100)))
    run = builder.build(
        run_id="r0", entries=entries, zone=Zone.GROOMED, level=0,
        min_groomed_id=3, max_groomed_id=7,
    )
    return definition, hierarchy, run, entries


class TestHeaderSerialization:
    def test_roundtrip(self, built_run):
        definition, _, run, _ = built_run
        blob = run.header.to_bytes(definition)
        decoded = RunHeader.from_bytes(definition, blob)
        assert decoded == run.header

    def test_bad_magic_rejected(self, built_run):
        definition, _, run, _ = built_run
        blob = b"XXXX" + run.header.to_bytes(definition)[4:]
        with pytest.raises(ValueError):
            RunHeader.from_bytes(definition, blob)

    def test_metadata_fields(self, built_run):
        _, _, run, entries = built_run
        assert run.min_groomed_id == 3
        assert run.max_groomed_id == 7
        assert run.level == 0
        assert run.zone is Zone.GROOMED
        assert run.entry_count == len(entries)
        assert run.header.persisted
        assert run.header.num_data_blocks > 1  # 256B blocks force splitting


class TestSynopsis:
    def test_from_entries_covers_key_columns(self, built_run):
        definition, _, run, _ = built_run
        synopsis = run.header.synopsis
        eq_range = synopsis.column_range(0)
        sort_range = synopsis.column_range(1)
        assert eq_range == ColumnRange(0, 99)
        assert sort_range == ColumnRange(0, 99)

    def test_empty_entries_give_none_ranges(self):
        definition = i1_definition()
        synopsis = Synopsis.from_entries(definition, [])
        assert synopsis.ranges == (None, None)

    def test_point_overlap(self):
        crange = ColumnRange(10, 20)
        assert crange.overlaps_point(10)
        assert crange.overlaps_point(20)
        assert not crange.overlaps_point(9)
        assert not crange.overlaps_point(21)

    def test_range_overlap_with_open_bounds(self):
        crange = ColumnRange(10, 20)
        assert crange.overlaps_range(None, None)
        assert crange.overlaps_range(None, 10)
        assert crange.overlaps_range(20, None)
        assert not crange.overlaps_range(21, None)
        assert not crange.overlaps_range(None, 9)


class TestDataBlocks:
    def test_block_roundtrip(self, built_run):
        definition, _, _, entries = built_run
        payload = encode_data_block(definition, entries[:10])
        view = DataBlockView(definition, payload)
        assert [view.entry(i) for i in range(view.count)] == entries[:10]

    def test_block_view_charges_io(self, built_run):
        _, hierarchy, run, _ = built_run
        before = hierarchy.stats.tier("ssd").reads
        run.block_view(0)
        assert hierarchy.stats.tier("ssd").reads > before

    def test_decode_cache_avoids_reread(self, built_run):
        _, hierarchy, run, _ = built_run
        run.block_view(0)
        reads = hierarchy.stats.tier("ssd").reads
        run.block_view(0)
        assert hierarchy.stats.tier("ssd").reads == reads
        run.drop_decode_cache()
        run.block_view(0)
        assert hierarchy.stats.tier("ssd").reads == reads + 1


class TestNavigation:
    def test_locate_maps_ordinals(self, built_run):
        definition, _, run, entries = built_run
        ordered = sorted(entries, key=lambda e: e.sort_key(definition))
        for ordinal in (0, 1, run.entry_count // 2, run.entry_count - 1):
            assert entry_at(run, ordinal) == ordered[ordinal]

    def test_locate_out_of_range(self, built_run):
        _, _, run, _ = built_run
        with pytest.raises(IndexError):
            run.locate(run.entry_count)

    def test_blocks_hold_every_entry_in_order(self, built_run):
        definition, _, run, entries = built_run
        scanned = run_entries(run)
        assert scanned == sorted(entries, key=lambda e: e.sort_key(definition))

    def test_all_block_ids_include_header(self, built_run):
        _, _, run, _ = built_run
        ids = run.all_block_ids()
        assert ids[0].ordinal == 0
        assert len(ids) == run.header.num_data_blocks + 1

