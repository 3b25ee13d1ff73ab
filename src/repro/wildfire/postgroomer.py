"""The post-groomer (paper section 2.1).

Every post-groom operation takes the groomed blocks produced since the last
one and:

1. collects, through the *post-groomed portion* of the index, the RIDs of
   already post-groomed records that the new records replace;
2. sets ``prevRID`` on the new records and ``endTS`` on the replaced ones
   (version chains for snapshot isolation and time travel);
3. re-organizes records by the analytics-friendly partition key into
   larger post-groomed blocks on shared storage;
4. publishes the operation's metadata under a new post-groom sequence
   number (PSN) and advances MaxPSN -- the indexer daemon polls this and
   evolves the index asynchronously (section 5.4);
5. marks the consumed groomed blocks deprecated.

The post-groomer never touches the index itself; the indexer does.  That
split (two loosely-coupled processes, coordination through PSN metadata
only) is exactly the paper's Figure 5.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.encoding import KeyValue, encode_composite, fnv1a64
from repro.core.entry import RID, Zone
from repro.core.index import UmziIndex
from repro.faults.crash import crash_point
from repro.storage.metrics import ReadIntent
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, TableSchema

_tuple_new = tuple.__new__


@dataclass(frozen=True)
class PostGroomOp:
    """Published metadata of one post-groom operation (the PSN record).

    ``rid_by_begin_ts`` maps each migrated version's ``beginTS`` to its
    new post-groomed RID.  The post-groomer computes every new RID anyway
    while stitching version chains, so publishing the map costs nothing
    extra -- and it lets the indexer's streaming evolve splice RIDs into
    raw groomed entry blobs without fetching a single post-groomed block.
    Nobody reads it again once every attached index has evolved the PSN,
    so the indexer then has it dropped (:meth:`PostGroomer.release_rid_map`;
    an index attached later rebuilds it from the blocks).
    """

    psn: int
    min_groomed_id: int
    max_groomed_id: int
    post_groomed_block_ids: Tuple[int, ...]
    record_count: int
    rid_by_begin_ts: Mapping[int, RID] = field(default_factory=dict)


class PostGroomer:
    """Periodic groomed-zone -> post-groomed-zone migration."""

    def __init__(
        self,
        schema: TableSchema,
        catalog: BlockCatalog,
        index: UmziIndex,
        index_spec: IndexSpec,
        partition_buckets: int = 4,
    ) -> None:
        if partition_buckets < 1:
            raise ValueError("partition_buckets must be >= 1")
        self.schema = schema
        self.catalog = catalog
        self.index = index
        equality, sort, _included = index_spec.positions(schema)
        self._key_positions = equality + sort
        self.partition_buckets = partition_buckets
        self._lock = threading.Lock()
        self._ops: Dict[int, PostGroomOp] = {}
        self._max_psn = 0
        self._last_post_groomed_gid = -1
        self._partition_positions = schema.positions(schema.partition_key)
        self._pk_positions = schema.positions(schema.primary_key)

    # -- published metadata (polled by the indexer) -----------------------------------

    @property
    def max_psn(self) -> int:
        """MaxPSN -- the newest published post-groom sequence number."""
        with self._lock:
            return self._max_psn

    def get_op(self, psn: int) -> PostGroomOp:
        with self._lock:
            if psn not in self._ops:
                raise KeyError(f"no post-groom operation published for PSN {psn}")
            return self._ops[psn]

    def release_rid_map(self, psn: int) -> None:
        """Drop a fully evolved PSN's ``beginTS -> RID`` map; the groomed-id
        range and block ids stay for the grace-PSN cleanup."""
        with self._lock:
            self._ops[psn] = replace(self._ops[psn], rid_by_begin_ts={})

    @property
    def last_post_groomed_gid(self) -> int:
        with self._lock:
            return self._last_post_groomed_gid

    # -- the operation ------------------------------------------------------------------

    def post_groom(self) -> Optional[PostGroomOp]:
        """Process all groomed blocks created since the previous post-groom."""
        with self._lock:
            first_gid = self._last_post_groomed_gid + 1
            last_gid = self.catalog.max_groomed_id
            if last_gid < first_gid:
                return None

            records = self._collect_groomed_records(first_gid, last_gid)
            block_ids, rid_by_begin_ts = self._repartition_and_write(records)

            psn = self._max_psn + 1
            op = PostGroomOp(
                psn=psn,
                min_groomed_id=first_gid,
                max_groomed_id=last_gid,
                post_groomed_block_ids=tuple(block_ids),
                record_count=len(records),
                rid_by_begin_ts=rid_by_begin_ts,
            )
            crash_point("postgroom.pre_publish")
            self._ops[psn] = op
            self._last_post_groomed_gid = last_gid
            self.catalog.deprecate_groomed(range(first_gid, last_gid + 1))
            self._max_psn = psn  # the atomic MaxPSN publication
            return op

    # -- internals --------------------------------------------------------------------------

    def _collect_groomed_records(
        self, first_gid: int, last_gid: int
    ) -> List[Record]:
        """Scan the newly groomed blocks in beginTS (= block, offset) order.

        A maintenance scan: each groomed block is consumed once and then
        deprecated, so the reads must not displace query-hot blocks from
        the SSD cache.
        """
        records: List[Record] = []
        for gid in range(first_gid, last_gid + 1):
            block = self.catalog.get_block(
                Zone.GROOMED, gid, intent=ReadIntent.MAINTENANCE
            )
            records.extend(block.records)
        return records

    def _repartition_and_write(
        self, records: List[Record]
    ) -> Tuple[List[int], Dict[int, RID]]:
        """Partition, resolve version chains, and write post-groomed blocks.

        Block ids are *reserved* before writing so every record's eventual
        RID is known up front; that lets intra-batch ``prevRID`` chains (a
        key updated more than once since the last post-groom) be stitched
        into the immutable records.  Previous versions outside the batch
        are found through the post-groomed portion of the index.  Returns
        the written block ids plus the ``beginTS -> new RID`` map published
        for the indexer's streaming evolve.
        """
        # Partition into buckets; records stay in beginTS order per bucket.
        bucket_of = [0] * len(records)
        if self._partition_positions:
            bucket_of = [self._bucket_of(record) for record in records]
        sorted_buckets = sorted(set(bucket_of))
        first_id = self.catalog.reserve_post_groomed_ids(len(sorted_buckets))
        # bucket -> its reserved block id and its records, in bucket order
        buckets: Dict[int, Tuple[int, List[Record]]] = {
            bucket: (first_id + i, []) for i, bucket in enumerate(sorted_buckets)
        }

        # Predecessors outside the batch: every distinct key goes through
        # the post-groomed portion of the index in ONE sorted sweep
        # (section 7.2), its key columns handed over column-major.  Every
        # post-groomed entry predates the batch, so one snapshot timestamp
        # serves all keys.
        keys: List[Tuple[KeyValue, ...]] = []
        last_rid: Dict[Tuple[KeyValue, ...], RID] = {}
        if records:
            columns = list(zip(*[record.values for record in records]))
            keys = list(zip(*[columns[i] for i in self._pk_positions]))
            distinct = dict(zip(keys, records))
            columns = list(zip(*[record.values for record in distinct.values()]))
            hits = self.index.post_groomed_batch_lookup(
                [columns[i] for i in self._key_positions],
                query_ts=records[0].begin_ts - 1,
            )
            last_rid = {
                key: hit.rid for key, hit in zip(distinct, hits) if hit is not None
            }

        # Resolve version chains in global beginTS order (= batch order),
        # with no call per record but a ``Record`` for each that gains a
        # ``prevRID`` (a RID is what ``RID._make`` builds, minus its frames).
        rid_by_begin_ts: Dict[int, RID] = {}
        end_ts_of: Dict[RID, int] = {}
        for key, record, bucket in zip(keys, records, bucket_of):
            block_id, slot = buckets[bucket]
            new_rid = _tuple_new(RID, (Zone.POST_GROOMED, block_id, len(slot)))
            prev_rid = last_rid.get(key)
            if prev_rid is not None:
                end_ts_of[prev_rid] = record.begin_ts
                record = Record(record.values, record.begin_ts, record.end_ts, prev_rid)
            slot.append(record)
            last_rid[key] = rid_by_begin_ts[record.begin_ts] = new_rid
        self.catalog.update_end_ts(end_ts_of)

        block_ids: List[int] = []
        for block_id, slot in buckets.values():
            block = self.catalog.store_post_groomed(slot, block_id=block_id)
            block_ids.append(block.block_id)
        return block_ids, rid_by_begin_ts

    def _bucket_of(self, record: Record) -> int:
        if not self._partition_positions:
            return 0
        value = tuple(record.values[i] for i in self._partition_positions)
        # Deterministic partition bucketing (Python's hash is salted).
        return fnv1a64(encode_composite(value)) % self.partition_buckets


__all__ = ["PostGroomOp", "PostGroomer"]
