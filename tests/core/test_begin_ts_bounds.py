"""A run header's beginTS bounds, handed over or scanned, against the
per-entry scan.

``RunBuilder.build_from_columns`` takes the bounds from the callers that
know them -- the groom (its beginTS column) and a merge whose retention
filter never ran (the union of its inputs' header bounds) -- and scans
the sort keys' ``~beginTS`` suffixes for every other build, an evolve's
included.  Either way the header must come out byte-identical to one
whose bounds are ``min`` / ``max`` of the decoded entries' ``begin_ts``.
"""

from dataclasses import replace

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.run import IndexRun
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import groomed_block, make_entries, rid_map, run_entries


def handed_over(builder):
    """Record, per run a ``builder`` builds, the ``begin_ts_bounds`` it
    was handed (``None``: it scanned)."""
    handed = {}
    build = builder.build_from_columns

    def spy(*args, begin_ts_bounds=None, **kwargs):
        run = build(*args, begin_ts_bounds=begin_ts_bounds, **kwargs)
        handed[run.run_id] = begin_ts_bounds
        return run

    builder.build_from_columns = spy
    return handed


def assert_header_is_scanned(run: IndexRun) -> None:
    """``run``'s header bytes equal those with per-entry scanned bounds."""
    stamps = [entry.begin_ts for entry in run_entries(run)]
    assert stamps, "an empty run has nothing to scan"
    scanned = replace(run.header, min_begin_ts=min(stamps), max_begin_ts=max(stamps))
    definition = run.definition
    assert run.header.to_bytes(definition) == scanned.to_bytes(definition)


@pytest.fixture
def merging(i1):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    return UmziIndex(i1, config=UmziConfig(name="b", levels=levels))


def test_a_groom_hands_over_its_begin_ts_column():
    schema = TableSchema(
        "t", (ColumnSpec("k"), ColumnSpec("c", ColumnType.STRING), ColumnSpec("v")), ("k",),
    )
    indexes = ShardIndexes(
        schema, IndexSpec((), ("k",), ("v",)), StorageHierarchy(), UmziConfig(),
        secondary_specs={"by_c": IndexSpec(("c",), (), ("v",))},
    )
    handed = {si.name: handed_over(si.index.builder) for si in indexes.all()}
    rows = [(k, f"c{k % 3}", k * 7) for k in (5, -2, 9, 0, 13)]
    begin_ts = [40, 17, 93, 41, 18]  # not in key order
    run_ids = indexes.build_groomed_runs(groomed_block(3, rows, begin_ts))
    for shard_index in indexes.all():
        (run,) = shard_index.index.run_lists[Zone.GROOMED].snapshot()
        assert handed[shard_index.name] == {run_ids[shard_index.name]: (17, 93)}
        assert_header_is_scanned(run)


def test_a_merge_with_the_filter_off_hands_over_the_union(merging, i1):
    handed = handed_over(merging.builder)
    merging.add_groomed_run(make_entries(i1, [1, 2, 3], begin_ts_start=20), 0, 0)
    merging.add_groomed_run(make_entries(i1, [2, 3, 4], begin_ts_start=5), 1, 1)
    (result,) = merging.run_maintenance()
    (run,) = [r for r in merging.all_runs() if r.run_id == result.output_run_id]
    assert handed[run.run_id] == (5, 22)
    assert_header_is_scanned(run)


def test_a_merge_that_drops_versions_scans(merging, i1):
    handed = handed_over(merging.builder)
    # Every key's old version (beginTS 1..3) is shadowed by a newer one
    # at or below the horizon, so the filter drops the oldest versions.
    merging.add_groomed_run(make_entries(i1, [1, 2, 3], begin_ts_start=1), 0, 0)
    merging.add_groomed_run(make_entries(i1, [1, 2, 3], begin_ts_start=10), 1, 1)
    merging.retention_ts = 50
    (result,) = merging.run_maintenance()
    (run,) = [r for r in merging.all_runs() if r.run_id == result.output_run_id]
    assert handed[run.run_id] is None
    assert run.entry_count == 3 and run.header.min_begin_ts == 10  # 1..3 dropped
    assert_header_is_scanned(run)


@pytest.mark.parametrize("covered", [slice(None), slice(1, None, 2)], ids=["full", "partial"])
def test_an_evolve_scans_with_or_without_skipped_blobs(index, i1, covered):
    handed = handed_over(index.builder)
    first = make_entries(i1, [4, 1, 7], begin_ts_start=30, block_id=0)
    second = make_entries(i1, [2, 9], begin_ts_start=8, block_id=1)
    index.add_groomed_run(first, 0, 0)
    index.add_groomed_run(second, 1, 1)
    versions = sorted(first + second, key=lambda e: e.begin_ts)[covered]
    moved = [e._replace(rid=RID(Zone.POST_GROOMED, 0, i)) for i, e in enumerate(versions)]
    result = index.evolve_streaming(1, rid_map(moved), 0, 1)
    (run,) = index.run_lists[Zone.POST_GROOMED].snapshot()
    skipped = covered != slice(None)
    assert (result.skipped_blobs > 0) == skipped
    assert handed[run.run_id] is None
    assert_header_is_scanned(run)
    if skipped:  # the oldest version (beginTS 8) was not covered
        assert run.header.min_begin_ts > 8

