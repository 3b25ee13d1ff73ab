"""The Record-based post-groom, kept as the column path's oracle.

Until the column-major post-groom, ``PostGroomer`` collected the newly
groomed blocks as one ``Record`` per version, built a ``RID`` per migrated
version and a ``Record`` per version that gained a ``prevRID``, wrote the
post-groomed blocks from those records and published a ``beginTS -> RID``
map.  That path lives on here, out of ``src/``, in two flavours:

* :func:`sweep_repartition_and_write` -- the one-sweep predecessor lookup
  the column path still makes, over records;
* :func:`per_key_repartition_and_write` -- the per-key lookup the sweep
  replaced: ``UmziIndex.post_groomed_lookup`` the first time a key showed
  up in the batch (a fresh ``QueryExecutor``, a pin, a synopsis pass and a
  bisect per key).

:func:`reencoded_payload` is the re-encode the column path replaced in
turn, when it began copying the groomed blocks' stored user bytes by
offset.  :func:`reference_migrate` stands in for ``PostGroomer._migrate``
with either: same blocks (every payload is also checked against the
record-based serializer the column path replaced), same ``prevRID``
chains, same endTS overlay, and its ``beginTS -> RID`` map serialized into
the splice map the PSN record publishes.
"""

import struct
from typing import Dict, List, Optional, Tuple

from repro.core.encoding import KeyValue, encode_ts_desc, fnv1a64
from repro.core.entry import RID, Zone
from repro.core.evolve import RidSplices
from repro.core.query import QueryExecutor
from repro.storage.metrics import ReadIntent
from repro.wildfire.columnar import encode_columns
from repro.wildfire.record import Record
from tests.conftest import encode_composite


def reference_post_groomed_lookup(index, equality_values, sort_values, query_ts):
    """One point lookup over the post-groomed run list: the single-key
    kernel ``IndexRun.lookup_visible``, not the batch kernel the sweep
    runs.  ``lookup`` reads as QUERY; its answer does not depend on the
    intent."""
    executor = QueryExecutor(
        index.definition,
        collect_runs=index.run_lists[Zone.POST_GROOMED].snapshot,
        lifecycle=index.lifecycle,
    )
    return executor.lookup(equality_values, sort_values, query_ts)


def reference_collect_groomed_records(
    post_groomer, first_gid: int, last_gid: int
) -> List[Record]:
    """The newly groomed blocks as records, in beginTS (= block, offset)
    order; a maintenance scan, like the column path's."""
    records: List[Record] = []
    for gid in range(first_gid, last_gid + 1):
        block = post_groomer.catalog.get_block(
            Zone.GROOMED, gid, intent=ReadIntent.MAINTENANCE
        )
        records.extend(map(Record, block.rows, block.begin_ts, block.end_ts))
    return records


def record_block_bytes(zone: Zone, block_id: int, records, encoded) -> bytes:
    """A ``UMZC`` payload serialized from records (the replaced writer)."""
    pack_u64 = struct.Struct(">Q").pack
    parts = [b"UMZC", struct.pack(">HBQI", 1, int(zone), block_id, len(records))]
    for column in encoded:
        parts.extend(column)
    parts.extend(pack_u64(r.begin_ts) for r in records)
    parts.extend(
        b"\x00" if r.end_ts is None else b"\x01" + pack_u64(r.end_ts)
        for r in records
    )
    parts.extend(
        b"\x00" if r.prev_rid is None else b"\x01" + r.prev_rid.to_bytes()
        for r in records
    )
    return b"".join(parts)


def reencoded_payload(schema, block) -> bytes:
    """A post-groomed block's bytes as the post-groom wrote them before it
    copied the groomed blocks' encodings: its rows encoded again."""
    return block.to_bytes(encode_columns(schema, block.rows))


def _write_blocks(post_groomer, buckets: Dict[int, Tuple[int, List[Record]]]):
    """Write each bucket's records as a post-groomed block; every payload
    must be what the record-based serializer makes of those records."""
    catalog = post_groomer.catalog
    block_ids: List[int] = []
    for block_id, records in buckets.values():
        encoded = encode_columns(post_groomer.schema, [r.values for r in records])
        block = catalog.store_post_groomed(
            [r.values for r in records],
            [r.begin_ts for r in records],
            [None if r.prev_rid is None else tuple(map(int, r.prev_rid))
             for r in records],
            block_id, encoded,
        )
        assert block.to_bytes(encoded) == record_block_bytes(
            Zone.POST_GROOMED, block_id, records, encoded
        ), f"block {block_id}: column bytes differ from record bytes"
        block_ids.append(block.block_id)
    return block_ids


def _reserve_buckets(post_groomer, records):
    """Bucket of each record, and bucket -> (reserved block id, [])."""
    positions = post_groomer.schema.positions(post_groomer.schema.partition_key)
    bucket_of = [
        fnv1a64(encode_composite([record.values[p] for p in positions]))
        % post_groomer.partition_buckets if positions else 0
        for record in records
    ]
    sorted_buckets = sorted(set(bucket_of))
    first_id = post_groomer.catalog.reserve_post_groomed_ids(len(sorted_buckets))
    buckets = {bucket: (first_id + i, []) for i, bucket in enumerate(sorted_buckets)}
    return bucket_of, buckets


def sweep_repartition_and_write(
    post_groomer, records: List[Record]
) -> Tuple[List[int], Dict[int, RID]]:
    """The record-based ``_repartition_and_write``: one sorted sweep for
    every distinct key's out-of-batch predecessor, then a ``RID`` per
    version and a ``Record`` per version that gains a ``prevRID``."""
    bucket_of, buckets = _reserve_buckets(post_groomer, records)
    keys: List[Tuple[KeyValue, ...]] = []
    last_rid: Dict[Tuple[KeyValue, ...], RID] = {}
    if records:
        columns = list(zip(*[record.values for record in records]))
        keys = list(zip(*[columns[i] for i in post_groomer._pk_positions]))
        distinct = dict(zip(keys, records))
        columns = list(zip(*[record.values for record in distinct.values()]))
        hits = post_groomer.index.post_groomed_batch_lookup(
            [columns[i] for i in post_groomer._key_positions],
            query_ts=records[0].begin_ts - 1,
        )
        last_rid = {  # the sweep answers plain-int RID triples
            key: RID(Zone(hit[0]), *hit[1:])
            for key, hit in zip(distinct, hits) if hit is not None
        }

    rid_by_begin_ts: Dict[int, RID] = {}
    end_ts_of: Dict[RID, int] = {}
    for key, record, bucket in zip(keys, records, bucket_of):
        block_id, slot = buckets[bucket]
        new_rid = RID(Zone.POST_GROOMED, block_id, len(slot))
        prev_rid = last_rid.get(key)
        if prev_rid is not None:
            end_ts_of[prev_rid] = record.begin_ts
            record = record._replace(prev_rid=prev_rid)
        slot.append(record)
        last_rid[key] = rid_by_begin_ts[record.begin_ts] = new_rid
    post_groomer.catalog.update_end_ts(end_ts_of)
    return _write_blocks(post_groomer, buckets), rid_by_begin_ts


def per_key_repartition_and_write(
    post_groomer, records: List[Record]
) -> Tuple[List[int], Dict[int, RID]]:
    """:func:`sweep_repartition_and_write` with one lookup per key."""
    bucket_of, buckets = _reserve_buckets(post_groomer, records)
    last_rid: Dict[tuple, RID] = {}
    rid_by_begin_ts: Dict[int, RID] = {}
    schema = post_groomer.schema
    pk_positions = schema.positions(schema.primary_key)
    for record, bucket in zip(records, bucket_of):
        block_id, slot = buckets[bucket]
        key = tuple(record.values[i] for i in pk_positions)
        prev_rid: Optional[RID] = last_rid.get(key)
        if prev_rid is None:
            key_values = [record.values[i] for i in post_groomer._key_positions]
            n_eq = len(post_groomer.index.definition.equality_columns)
            eq, sort = key_values[:n_eq], key_values[n_eq:]
            hit = reference_post_groomed_lookup(
                post_groomer.index, eq, sort, query_ts=record.begin_ts - 1
            )
            if hit is not None:
                prev_rid = hit.rid
        if prev_rid is not None:
            post_groomer.catalog.update_end_ts({prev_rid: record.begin_ts})
        new_rid = RID(Zone.POST_GROOMED, block_id, len(slot))
        slot.append(record._replace(prev_rid=prev_rid))
        last_rid[key] = new_rid
        rid_by_begin_ts[record.begin_ts] = new_rid
    return _write_blocks(post_groomer, buckets), rid_by_begin_ts


def serialized_splices(rid_by_begin_ts: Dict[int, RID]) -> RidSplices:
    """A ``beginTS -> RID`` map as the splice map a PSN record publishes."""
    splices = RidSplices()
    splices.update(
        (encode_ts_desc(ts), rid.to_bytes()) for ts, rid in rid_by_begin_ts.items()
    )
    return splices


def reference_migrate(
    post_groomer, repartition_and_write, first_gid: int, last_gid: int
) -> Tuple[List[int], RidSplices, int]:
    """``PostGroomer._migrate`` over records (bind ``post_groomer`` and a
    ``*_repartition_and_write`` with ``functools.partial``)."""
    records = reference_collect_groomed_records(post_groomer, first_gid, last_gid)
    block_ids, rid_by_begin_ts = repartition_and_write(post_groomer, records)
    return block_ids, serialized_splices(rid_by_begin_ts), len(records)
