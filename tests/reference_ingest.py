"""The per-row ingest door, kept as the oracle of the one-pass batch door.

Until the batch door, ``ShardedTable._ingest_rows`` routed a batch one row
at a time -- ``key_hash`` validated that row's sharding values with
``ColumnSpec.validate``, encoded them with ``encode_typed`` and hashed
them with ``fnv1a64`` -- and only then ingested shard by shard, where
``WildfireShard.ingest`` staged one ``Transaction.upsert`` (one
``TableSchema.validate_row``) per row before committing.  Both halves
live on here, out of ``src/``, as the reference the batch door is
compared against (``tests/properties/test_ingest_equivalence.py``): same
routing, same committed rows, same refusal.

The one difference is deliberate: the per-row door committed the shards it
had reached before a bad row's shard refused, so a refused batch left a
prefix behind; the batch door commits nothing.
"""

from typing import Dict, List, Sequence

from repro.core.definition import encode_typed
from repro.core.encoding import columns_of, fnv1a64
from repro.wildfire.schema import ColumnBatch
from repro.wildfire.txlog import CommittedTransaction


def reference_key_hash(table, sharding_values: Sequence) -> int:
    """``ShardedTable.key_hash`` as the per-row door called it."""
    specs = table._shard_specs
    values = [spec.validate(value) for spec, value in zip(specs, sharding_values)]
    return fnv1a64(encode_typed(specs, values))


def reference_shard_ingest(shard, rows: Sequence[Sequence]) -> int:
    """``WildfireShard.ingest``: one validated upsert per row, one commit
    (of the rows' columns, as the committed log holds them)."""
    side_log: List[tuple] = []
    for row in rows:
        side_log.append(shard.schema.validate_row(row))
    if not side_log:
        return 0
    commit_seq = shard.clock.next_commit_seq()
    columns = columns_of(side_log, range(len(shard.schema.columns)))
    shard.committed_log.append(CommittedTransaction(commit_seq, ColumnBatch(columns)))
    return commit_seq


def reference_ingest(table, rows: Sequence[Sequence]) -> Dict[int, int]:
    """``ShardedTable._ingest_rows``: route every row, then ingest per shard."""
    per_shard: Dict[int, List[Sequence]] = {}
    shard_map = table.maps.pin()
    try:
        for row in rows:
            values = [row[i] for i in table._shard_positions]
            shard_id = shard_map.write_shard(reference_key_hash(table, values))
            per_shard.setdefault(shard_id, []).append(row)
        for shard_id, shard_rows in per_shard.items():
            reference_shard_ingest(table.shards[shard_id], shard_rows)
    finally:
        table.maps.unpin(shard_map.epoch)
    return {shard_id: len(rs) for shard_id, rs in per_shard.items()}
