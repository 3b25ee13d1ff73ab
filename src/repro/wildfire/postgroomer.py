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
from itertools import compress, groupby
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.definition import COLUMN_ENCODERS
from repro.core.encoding import columns_of, fnv1a64_column
from repro.core.entry import Zone
from repro.core.evolve import RidSplices
from repro.core.index import UmziIndex
from repro.faults.crash import crash_point
from repro.storage.metrics import ReadIntent
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.columnar import RidTriple
from repro.wildfire.schema import IndexSpec, TableSchema


@dataclass(frozen=True)
class PostGroomOp:
    """Published metadata of one post-groom operation (the PSN record).

    ``splices`` maps each migrated version's raw ``~beginTS`` sort-key
    suffix to its new post-groomed RID, serialized: the indexer splices it
    into raw groomed entry blobs with no block fetch and no RID built.
    Once every attached index has evolved the PSN the indexer has it
    dropped (:meth:`PostGroomer.release_rid_map`; an index attached later
    rebuilds it from the blocks).
    """

    psn: int
    min_groomed_id: int
    max_groomed_id: int
    post_groomed_block_ids: Tuple[int, ...]
    record_count: int
    splices: RidSplices = field(default_factory=RidSplices)


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
        """Drop a fully evolved PSN's splice map; the groomed-id range and
        block ids stay for the grace-PSN cleanup."""
        with self._lock:
            self._ops[psn] = replace(self._ops[psn], splices=RidSplices())

    # -- the operation ------------------------------------------------------------------

    def post_groom(self) -> Optional[PostGroomOp]:
        """Process all groomed blocks created since the previous post-groom."""
        with self._lock:
            first_gid = self._last_post_groomed_gid + 1
            last_gid = self.catalog.max_groomed_id
            if last_gid < first_gid:
                return None

            block_ids, splices, count = self._migrate(first_gid, last_gid)

            psn = self._max_psn + 1
            op = PostGroomOp(
                psn=psn,
                min_groomed_id=first_gid,
                max_groomed_id=last_gid,
                post_groomed_block_ids=tuple(block_ids),
                record_count=count,
                splices=splices,
            )
            crash_point("postgroom.pre_publish")
            self._ops[psn] = op
            self._last_post_groomed_gid = last_gid
            self.catalog.deprecate_groomed(range(first_gid, last_gid + 1))
            self._max_psn = psn  # the atomic MaxPSN publication
            return op

    # -- internals --------------------------------------------------------------------------

    def _migrate(
        self, first_gid: int, last_gid: int
    ) -> Tuple[List[int], RidSplices, int]:
        """Move groomed blocks ``first_gid..last_gid`` into post-groomed
        ones a column at a time; returns the new block ids, their splice
        map and the number of versions moved.

        The groomed blocks are read as a maintenance scan (consumed once,
        then deprecated), in beginTS (= block, offset) order.  Block ids
        are *reserved* first, so each version's new RID is known before
        any block is written and intra-batch ``prevRID`` chains (a key
        updated twice since the last post-groom) can be stitched in.
        """
        blocks = [
            self.catalog.get_block(Zone.GROOMED, gid, intent=ReadIntent.MAINTENANCE)
            for gid in range(first_gid, last_gid + 1)
        ]
        rows = [row for block in blocks for row in block.rows]
        begin_ts = [ts for block in blocks for ts in block.begin_ts]
        # Partition by the partition key's encoding (Python's hash is
        # salted; no key: bucket 0); rows stay in beginTS order per bucket.
        positions, buckets = self._partition_positions, self.partition_buckets
        parts = [COLUMN_ENCODERS[self.schema.columns[p].ctype](column)
                 for p, column in zip(positions, columns_of(rows, positions))]
        bucket_of = [h % buckets for h in fnv1a64_column(list(map(b"".join, zip(*parts))))]
        bucket_of = bucket_of or [0] * len(rows)
        sorted_buckets = sorted(set(bucket_of))
        first_id = self.catalog.reserve_post_groomed_ids(len(sorted_buckets))
        # bucket -> (reserved block id, rows, beginTS, prevRID, user column
        # bytes), bucket order
        slots: Dict[int, Tuple[int, List, List, List, List[List[bytes]]]] = {
            bucket: (first_id + i, [], [], [], [[] for _ in self.schema.columns])
            for i, bucket in enumerate(sorted_buckets)
        }
        # User bytes are copied as the groomed blocks stored them: a slice
        # per column for each run of versions one bucket takes in a row.
        start = 0
        for block in blocks:
            first = 0
            for bucket, run in groupby(bucket_of[start:start + len(block.rows)]):
                stop = first + len(list(run))
                for column, section in zip(slots[bucket][4], block.column_bytes(first, stop)):
                    column.append(section)
                first = stop
            start += first

        # Predecessors outside the batch: every distinct key goes through
        # the post-groomed portion of the index in ONE sorted sweep
        # (section 7.2), its key columns handed over column-major.  Every
        # post-groomed entry predates the batch, so one snapshot timestamp
        # serves all keys.  A one-column primary key is keyed by its value.
        keys: Sequence = ()
        last_rid: Dict = {}
        if rows:
            keys = columns_of(rows, self._pk_positions)
            keys = keys[0] if len(keys) == 1 else list(zip(*keys))
            distinct = dict(zip(keys, rows))
            key_columns = columns_of(distinct.values(), self._key_positions)
            hits = self.index.post_groomed_batch_lookup(key_columns, begin_ts[0] - 1)
            last_rid = dict(compress(zip(distinct, hits), hits))

        # Resolve version chains in global beginTS order (= batch order),
        # with no call per version: a version of the batch is the int
        # ``block id << 32 | offset`` until a successor needs its RID as
        # a plain-int triple.
        post_groomed = int(Zone.POST_GROOMED)
        end_ts_of: Dict[RidTriple, int] = {}
        for key, row, ts, bucket in zip(keys, rows, begin_ts, bucket_of):
            block_id, slot_rows, slot_ts, slot_prev, _bytes = slots[bucket]
            prev_rid = last_rid.get(key)
            if prev_rid is not None:
                if prev_rid.__class__ is int:
                    prev_rid = (post_groomed, prev_rid >> 32, prev_rid & 0xFFFFFFFF)
                end_ts_of[prev_rid] = ts
            last_rid[key] = block_id << 32 | len(slot_rows)
            slot_rows.append(row)
            slot_ts.append(ts)
            slot_prev.append(prev_rid)
        self.catalog.update_end_ts(end_ts_of)

        splices = RidSplices()
        for block_id, slot_rows, slot_ts, slot_prev, encoded in slots.values():
            block = self.catalog.store_post_groomed(
                slot_rows, slot_ts, slot_prev, block_id, encoded
            )
            splices.update(block.rid_splices())
        return [slot[0] for slot in slots.values()], splices, len(rows)


__all__ = ["PostGroomOp", "PostGroomer"]
