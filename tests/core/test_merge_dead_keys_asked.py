"""A merge asks for a secondary's dead keys only when its filter runs.

``ShardIndex.dead_keys`` is a pass over every stale key of the index, and
``merge_blocks`` reads its answer only where versions lie at or below the
retention horizon; inputs all above it skip the filter, so the callable
is not called for them.  The merged pairs are the same either way.
"""

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, IndexDefinition
from repro.core.entry import RID, IndexEntry, Zone
from repro.core.merge import merge_blocks
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import merged_blob_pairs

DEFINITION = IndexDefinition(sort_columns=(ColumnSpec("device"), ColumnSpec("msg")))


def runs():
    builder = RunBuilder(DEFINITION, StorageHierarchy(), data_block_bytes=64)
    return [
        builder.build(f"r{gid}", [
            IndexEntry.create(DEFINITION, (), (device, 1), (), 10 * gid + device,
                              RID(Zone.GROOMED, gid, device))
            for device in range(3)
        ], Zone.GROOMED, 0, gid, gid)
        for gid in (2, 1)  # newest first
    ]


def test_dead_keys_are_asked_only_when_the_retention_filter_runs():
    inputs, asked = runs(), []

    def dead_keys(retention_ts):
        asked.append(retention_ts)
        return ()

    for retention_ts in (None, 5, 9):  # no horizon, or below every version
        merged = [pair for keys, blobs in merge_blocks(inputs, retention_ts, dead_keys)
                  for pair in zip(keys, blobs)]
        assert merged == list(merged_blob_pairs(inputs))
        assert asked == []
    pairs = list(merged_blob_pairs(inputs, 12))
    assert [pair for keys, blobs in merge_blocks(inputs, 12, dead_keys)
            for pair in zip(keys, blobs)] == pairs
    assert asked == [12]
