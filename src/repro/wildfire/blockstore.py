"""Catalog of groomed and post-groomed data blocks.

Blocks live on shared storage (write-through to the SSD cache, like index
runs) and are decoded on demand.  The catalog also owns:

* monotonic groomed / post-groomed block ids ("each groomed block is
  uniquely identified by a monotonic increasing ID");
* the deprecation lifecycle of groomed blocks ("after a post-groom
  operation, groomed data blocks are marked deprecated and eventually
  deleted"), with deletion deferred one PSN so in-flight queries holding
  groomed RIDs can still resolve them;
* the ``endTS`` overlay.  **Substitution note:** Wildfire updates endTS
  fields inside post-groomed Parquet data; our shared storage (like S3)
  forbids in-place updates, so endTS lives in an in-memory overlay, one
  ``{offset: endTS}`` dict per block, applied at record fetch.  Umzi never
  stores endTS, and snapshot visibility semantics are identical.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.entry import RID, ZONES, Zone
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent
from repro.storage.retry import TransientIOError
from repro.wildfire.columnar import Columns, DataBlock, RidTriple, Row
from repro.wildfire.record import Record
from repro.wildfire.schema import TableSchema

_NONE_ENDED: Dict[int, int] = {}  # the overlay of a block no version ended in
_tuple_new = tuple.__new__


class BlockNotFound(KeyError):
    """A data block (or record) was requested that no longer exists."""


class BlockCatalog:
    """Zone-aware data-block store for one table shard."""

    def __init__(
        self,
        schema: TableSchema,
        hierarchy: StorageHierarchy,
    ) -> None:
        self.schema = schema
        self.hierarchy = hierarchy
        self._lock = threading.Lock()
        self._next_groomed_id = 0
        self._next_post_groomed_id = 0
        self._live_groomed: Set[int] = set()
        self._live_post_groomed: Set[int] = set()
        self._deprecated_groomed: Set[int] = set()
        self._decoded: Dict[Tuple[Zone, int], DataBlock] = {}
        # endTS overlay: (zone, block id) -> {offset: endTS}
        self._end_ts: Dict[Tuple[Zone, int], Dict[int, int]] = {}

    # -- namespaces -----------------------------------------------------------------

    def _namespace(self, zone: Zone, block_id: int) -> str:
        letter = "g" if zone is Zone.GROOMED else "p"
        return f"{self.schema.name}-blk-{letter}-{block_id:08d}"

    def namespace_of(self, zone: Zone, block_id: int) -> str:
        """Public namespace accessor (shard split block transfer)."""
        return self._namespace(zone, block_id)

    # -- writes ----------------------------------------------------------------------

    def store_groomed(
        self, rows: Sequence[Row], begin_ts: Sequence[int], encoded: Columns
    ) -> DataBlock:
        """Persist one new groomed block, its user columns already encoded."""
        with self._lock:
            block_id = self._next_groomed_id
            self._next_groomed_id += 1
            self._live_groomed.add(block_id)
        try:
            return self._store(Zone.GROOMED, block_id, rows, begin_ts, (), encoded)
        except TransientIOError:
            # Abort safety (ISSUE 7): a block that never landed must not
            # occupy an id -- the post-groomer consumes the groomed id
            # range densely, so a phantom id would break its collection
            # scan.  The groomer requeues the rows and retries later.
            with self._lock:
                self._live_groomed.discard(block_id)
                if self._next_groomed_id == block_id + 1:
                    self._next_groomed_id = block_id
            raise

    def reserve_post_groomed_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive post-groomed block ids.

        The post-groomer needs RIDs *before* blocks are written so it can
        stitch intra-batch ``prevRID`` chains into the (immutable) blocks;
        returns the first reserved id.
        """
        with self._lock:
            first = self._next_post_groomed_id
            self._next_post_groomed_id += count
            return first

    def store_post_groomed(
        self, rows: Sequence[Row], begin_ts: Sequence[int],
        prev_rids: Sequence[Optional[RidTriple]], block_id: int, encoded: Columns,
    ) -> DataBlock:
        """Persist one post-groomed block under a reserved id (``encoded``: see
        :meth:`DataBlock.to_bytes`); ``prev_rids`` holds each version's
        ``prevRID`` as a plain-int triple or ``None``."""
        with self._lock:
            if block_id >= self._next_post_groomed_id:
                raise ValueError(
                    f"post-groomed block id {block_id} was never reserved"
                )
            self._live_post_groomed.add(block_id)
        try:
            return self._store(
                Zone.POST_GROOMED, block_id, rows, begin_ts, prev_rids, encoded
            )
        except TransientIOError:
            # The id may be a pre-reserved one (RID stitching), so only
            # the liveness registration is rolled back; an aborted
            # post-groom never publishes its op, and the retried batch
            # reserves fresh ids (append-only namespaces, so the orphan
            # shared-storage blocks are never referenced).
            with self._lock:
                self._live_post_groomed.discard(block_id)
            raise

    def _store(
        self, zone: Zone, block_id: int, rows: Sequence[Row],
        begin_ts: Sequence[int], prev_rids: Sequence, encoded: Columns,
    ) -> DataBlock:
        none = (None,) * len(rows)  # no endTS is ever written: see the overlay
        block = DataBlock(
            zone, block_id, tuple(rows), tuple(begin_ts), none, tuple(prev_rids or none)
        )
        if zone is Zone.GROOMED:  # what the post-groom copies its bytes from
            block = block.stored(self.schema, encoded)
        payload = block.payload or block.to_bytes(encoded)
        storage_block = Block(BlockId(self._namespace(zone, block_id), 0), payload)
        self.hierarchy.write_persisted(storage_block, write_through_ssd=True)
        with self._lock:
            self._decoded[(zone, block_id)] = block
        return block

    # -- reads ------------------------------------------------------------------------

    def get_block(
        self,
        zone: Zone,
        block_id: int,
        intent: ReadIntent = ReadIntent.QUERY,
    ) -> DataBlock:
        """Fetch and decode one record block.

        ``intent`` is the cache-admission signal forwarded to the storage
        hierarchy: record fetches on behalf of queries promote on a miss,
        while maintenance scans (the post-groomer collecting groomed
        rows, the indexer's splice-map fallback) pass
        ``ReadIntent.MAINTENANCE`` and leave the SSD cache untouched.
        """
        with self._lock:
            cached = self._decoded.get((zone, block_id))
        if cached is not None:
            return cached
        try:
            raw = self.hierarchy.read(
                BlockId(self._namespace(zone, block_id), 0), intent=intent
            )
        except KeyError as exc:
            raise BlockNotFound(f"{zone.name} block {block_id}") from exc
        block = DataBlock.from_bytes(self.schema, raw.payload)
        with self._lock:
            self._decoded[(zone, block_id)] = block
        return block

    def fetch_record(self, rid: RID) -> Record:
        """Resolve a RID to its record, applying the endTS overlay: one
        frame on a memoized block, the record built from its columns."""
        key, offset = rid[:2], rid[2]
        block = self._decoded.get(key) or self.get_block(*key)
        prev = block.prev_rids[offset]
        return _tuple_new(Record, (
            block.rows[offset], block.begin_ts[offset],
            self._end_ts.get(key, _NONE_ENDED).get(offset, block.end_ts[offset]),
            prev and _tuple_new(RID, (ZONES[prev[0]], prev[1], prev[2])),
        ))

    def fetch_records(self, rids: Sequence[RID]) -> List[Tuple[Row, int]]:
        """Each RID's ``(values, beginTS)``, RID order preserved: all a
        typed query reads of a record (no endTS overlay, no prevRID), no
        call per record, and one block read per block on a miss."""
        decoded = self._decoded
        pairs = []
        for zone, block_id, offset in rids:
            block = decoded.get((zone, block_id)) or self.get_block(zone, block_id)
            pairs.append((block.rows[offset], block.begin_ts[offset]))
        return pairs

    # -- hidden-column maintenance (post-groomer) -----------------------------------------

    def update_end_ts(self, end_ts_of: Mapping[RidTriple, int]) -> None:
        """Set many records' ``endTS`` (keyed by RID or plain-int triple)."""
        with self._lock:
            for (zone, block_id, offset), end_ts in end_ts_of.items():
                self._end_ts.setdefault((ZONES[zone], block_id), {})[offset] = end_ts

    # -- groomed-block lifecycle ------------------------------------------------------------

    @property
    def max_groomed_id(self) -> int:
        """Largest assigned groomed block id, or -1 when none exist yet."""
        with self._lock:
            return self._next_groomed_id - 1

    @property
    def max_post_groomed_id(self) -> int:
        with self._lock:
            return self._next_post_groomed_id - 1

    def live_groomed_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._live_groomed)

    def live_post_groomed_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._live_post_groomed)

    def export_end_ts_overlay(self) -> Dict[RID, int]:
        """Copy of the endTS overlay (shard split state transfer)."""
        with self._lock:
            return {
                RID(zone, block_id, offset): end_ts
                for (zone, block_id), ended in self._end_ts.items()
                for offset, end_ts in ended.items()
            }

    # -- shard split (ISSUE 8) -------------------------------------------------------

    def adopt_post_groomed(
        self,
        source: "BlockCatalog",
        block_ids: Iterable[int],
        overlay: Dict[RID, int],
    ) -> List[int]:
        """Copy another catalog's post-groomed blocks into this one.

        Block payloads are transferred verbatim -- same block ids, same
        namespaces, byte-identical bytes -- so every RID baked into the
        source's index entry blobs stays resolvable here without
        rewriting a single entry.  Idempotent: already-adopted ids are
        skipped, so a crashed split's replay re-copies only what is
        missing.  Returns the ids actually copied this call.
        """
        copied: List[int] = []
        for block_id in sorted(block_ids):
            with self._lock:
                if block_id in self._live_post_groomed:
                    self._next_post_groomed_id = max(
                        self._next_post_groomed_id, block_id + 1
                    )
                    continue
            raw = source.hierarchy.read(
                BlockId(source.namespace_of(Zone.POST_GROOMED, block_id), 0),
                intent=ReadIntent.MAINTENANCE,
            )
            self.hierarchy.write_persisted(
                Block(
                    BlockId(self._namespace(Zone.POST_GROOMED, block_id), 0),
                    raw.payload,
                ),
                write_through_ssd=True,
            )
            with self._lock:
                self._live_post_groomed.add(block_id)
                self._next_post_groomed_id = max(
                    self._next_post_groomed_id, block_id + 1
                )
            copied.append(block_id)
        self.update_end_ts(overlay)
        return copied

    def ensure_post_groomed_floor(self, floor: int) -> None:
        """Raise the post-groomed id allocator to at least ``floor``.

        Shard split uses this to stride the two successors' allocators
        apart (the left successor stays dense at the source's watermark;
        the right one jumps a fixed stride above it), so that blocks the
        successors write *after* the split can never collide by id --
        which is what lets a later merge adopt both successors' blocks
        verbatim.  Idempotent and forward-only: replaying it after a
        crash, or after blocks were already written above the floor,
        changes nothing.
        """
        with self._lock:
            self._next_post_groomed_id = max(self._next_post_groomed_id, floor)

    def deprecate_groomed(self, block_ids: Iterable[int]) -> None:
        """Mark groomed blocks as superseded by post-groomed copies."""
        with self._lock:
            for block_id in block_ids:
                if block_id in self._live_groomed:
                    self._deprecated_groomed.add(block_id)

    def delete_deprecated_up_to(self, max_block_id: int) -> List[int]:
        """Physically delete deprecated groomed blocks with id <= bound."""
        with self._lock:
            doomed = sorted(
                bid for bid in self._deprecated_groomed if bid <= max_block_id
            )
            for block_id in doomed:
                self._deprecated_groomed.discard(block_id)
                self._live_groomed.discard(block_id)
                self._decoded.pop((Zone.GROOMED, block_id), None)
        for block_id in doomed:
            self.hierarchy.delete_namespace(self._namespace(Zone.GROOMED, block_id))
        return doomed

    # -- failure injection -----------------------------------------------------------------------

    def forget_decoded(self) -> None:
        """Drop the in-process decode cache (crash simulation support)."""
        with self._lock:
            self._decoded.clear()


__all__ = ["BlockCatalog", "BlockNotFound"]
