"""The indexer daemon (paper sections 3, 5.4).

"The indexer keeps track of the indexed post-groom sequence number, i.e.,
IndexedPSN, and keeps polling the maximum PSN.  If IndexedPSN is smaller
than the maximum PSN, the indexer process performs an index evolve
operation for IndexedPSN+1, which guarantees the index evolves in a
correct order."

The daemon is deliberately decoupled from the post-groomer: it reads only
published PSN metadata and the post-groomed blocks themselves -- the
minimum-coordination property the paper emphasizes for loosely-coupled
distributed processes.

By default evolves run on the zero-decode streaming path: the daemon
derives one ``beginTS -> new RID`` map from the post-groomed blocks and
each index re-points its own groomed entry blobs by raw RID splices --
no :class:`IndexEntry` is rebuilt per index per record.  The legacy
rebuild-entries-per-index path remains available (``streaming_evolve=
False``) as the ablation baseline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.entry import RID, Zone
from repro.core.evolve import EvolveResult, RidSplices
from repro.faults.crash import crash_point
from repro.storage.metrics import ReadIntent
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.postgroomer import PostGroomer
from repro.wildfire.schema import TableSchema


@dataclass(frozen=True)
class IndexerStepResult:
    """One applied PSN (an evolve per index) plus groomed-block cleanup."""

    evolve: EvolveResult  # the primary index's evolve
    deleted_groomed_blocks: List[int]
    secondary_evolves: Tuple[EvolveResult, ...] = ()


class IndexerDaemon:
    """Applies pending index evolve operations in PSN order."""

    def __init__(
        self,
        schema: TableSchema,
        catalog: BlockCatalog,
        indexes: ShardIndexes,
        post_groomer: PostGroomer,
        groomed_block_grace_psns: int = 1,
        streaming_evolve: bool = True,
    ) -> None:
        self.schema = schema
        self.catalog = catalog
        self.indexes = indexes
        self.index = indexes.primary.index  # the primary index
        self.post_groomer = post_groomer
        # Zero-decode evolve (RID splices over raw groomed blobs) vs the
        # legacy per-index entry rebuild; see the module docstring.
        self.streaming_evolve = streaming_evolve
        # Groomed blocks of PSN p are deleted only once PSN p+grace has
        # evolved, so queries that raced an evolve can still resolve
        # groomed RIDs ("eventually deleted", section 5.4).
        self.groomed_block_grace_psns = groomed_block_grace_psns
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.evolves_applied = 0
        # PSNs that had to fall back from the streaming splice path to the
        # legacy entry rebuild because beginTS values were not unique (see
        # step(): a collapsed beginTS -> RID map would mis-point entries).
        self.streaming_fallbacks = 0
        # Backpressure gate (ISSUE 7): consulted by the threaded loop
        # before each step; False idles the daemon for one poll interval.
        self._gate = None

    def set_gate(self, gate) -> None:
        """Install (or clear, with ``None``) the backpressure gate."""
        self._gate = gate

    # -- polling ------------------------------------------------------------------

    def pending_psns(self) -> int:
        return max(0, self.post_groomer.max_psn - self.indexes.min_indexed_psn())

    def step(self) -> Optional[IndexerStepResult]:
        """Apply the next pending PSN: one evolve per attached index."""
        with self._lock:
            next_psn = self.indexes.min_indexed_psn() + 1
            if next_psn > self.post_groomer.max_psn:
                return None
            crash_point("indexer.pre_evolve")
            op = self.post_groomer.get_op(next_psn)

            blocks = []
            use_streaming = self.streaming_evolve
            if use_streaming:
                # One beginTS -> post-groomed RID map serves every index:
                # evolve never rebuilds an entry, it splices RIDs into
                # each index's own groomed blobs.  The map published in
                # the PSN record spares even the block fetches; op records
                # without one (an older record, or one whose map was
                # released because every index then attached had evolved
                # it) fall back to the blocks' own maps (a maintenance
                # read: the blocks are consumed once, not query traffic).
                new_rid_by_ts = op.rid_by_begin_ts
                if not new_rid_by_ts:
                    new_rid_by_ts = {}
                    for block_id in op.post_groomed_block_ids:
                        block = self.catalog.get_block(
                            Zone.POST_GROOMED, block_id,
                            intent=ReadIntent.MAINTENANCE,
                        )
                        new_rid_by_ts.update(block.rid_by_begin_ts())
                # Streaming evolve keys its RID map by beginTS, which is
                # only sound when beginTS values uniquely identify record
                # versions (the groomer's `cycle | order` composition
                # guarantees that; an alternative ingest front-end might
                # not).  Duplicates collapse in the map -- the key count
                # falls short of the migrated record count -- and splicing
                # from a collapsed map would silently point several index
                # entries at one record.  Detect that and fall back to the
                # legacy per-index entry rebuild for this PSN.
                if len(new_rid_by_ts) < op.record_count:
                    use_streaming = False
                    self.streaming_fallbacks += 1
                # Serialized once per version, spliced by every index.
                splices = RidSplices(new_rid_by_ts.get)
            if not use_streaming:
                blocks = [
                    self.catalog.get_block(
                        Zone.POST_GROOMED, block_id,
                        intent=ReadIntent.MAINTENANCE,
                    )
                    for block_id in op.post_groomed_block_ids
                ]
            primary_result: Optional[EvolveResult] = None
            secondary_results: List[EvolveResult] = []
            for shard_index in self.indexes.all():
                if shard_index.index.indexed_psn >= next_psn:
                    continue  # already evolved (e.g. resumed after crash)
                if use_streaming:
                    result = shard_index.index.evolve_streaming(
                        op.psn, splices,
                        op.min_groomed_id, op.max_groomed_id,
                    )
                else:
                    entries = []
                    for block in blocks:
                        for offset, record in enumerate(block.records):
                            eq, sort, incl = shard_index.extract(record.values)
                            entries.append(
                                shard_index.index.make_entry(
                                    eq, sort, incl, record.begin_ts,
                                    RID(block.zone, block.block_id, offset),
                                )
                            )
                    result = shard_index.index.evolve(
                        op.psn, entries, op.min_groomed_id, op.max_groomed_id
                    )
                if shard_index.name == "primary":
                    primary_result = result
                else:
                    secondary_results.append(result)
            if primary_result is None:
                # Primary was already at this PSN (crash replay): synthesize
                # a no-op record so callers still get a coherent result.
                primary_result = EvolveResult(
                    psn=next_psn, new_run_id="", new_run_entries=0,
                    watermark_before=self.index.watermark.value,
                    watermark_after=self.index.watermark.value,
                    collected_run_ids=(),
                )

            # Every attached index has evolved this PSN: nobody will read
            # its beginTS -> RID map again.
            self.post_groomer.release_rid_map(next_psn)

            # Deferred physical cleanup of deprecated groomed blocks.
            grace_psn = op.psn - self.groomed_block_grace_psns
            deleted: List[int] = []
            if grace_psn >= 1:
                bound = self.post_groomer.get_op(grace_psn).max_groomed_id
                deleted = self.catalog.delete_deprecated_up_to(bound)

            self.evolves_applied += 1
            return IndexerStepResult(
                evolve=primary_result,
                deleted_groomed_blocks=deleted,
                secondary_evolves=tuple(secondary_results),
            )

    def drain(self, max_steps: int = 64) -> List[IndexerStepResult]:
        """Apply every pending evolve (deterministic mode)."""
        results: List[IndexerStepResult] = []
        for _ in range(max_steps):
            result = self.step()
            if result is None:
                break
            results.append(result)
        return results

    # -- threaded mode --------------------------------------------------------------

    def start(self, poll_interval_s: float = 0.01) -> None:
        if self._thread is not None:
            raise RuntimeError("indexer daemon already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                gate = self._gate
                if gate is not None and not gate():
                    time.sleep(poll_interval_s)
                    continue
                if self.step() is None:
                    time.sleep(poll_interval_s)

        self._thread = threading.Thread(target=loop, name="umzi-indexer", daemon=True)
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None


__all__ = ["IndexerDaemon", "IndexerStepResult"]
