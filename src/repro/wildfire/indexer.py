"""The indexer daemon (paper sections 3, 5.4).

"The indexer keeps track of the indexed post-groom sequence number, i.e.,
IndexedPSN, and keeps polling the maximum PSN.  If IndexedPSN is smaller
than the maximum PSN, the indexer process performs an index evolve
operation for IndexedPSN+1, which guarantees the index evolves in a
correct order."

The polling is the shard's one lifecycle driver: every
:meth:`~repro.wildfire.engine.WildfireShard.tick` (looped by the shard's
daemon thread, if it runs) calls :meth:`IndexerDaemon.drain` after groom
and post-groom.  The daemon is deliberately decoupled from the
post-groomer: it reads only published PSN metadata and the post-groomed
blocks themselves -- the minimum-coordination property the paper
emphasizes for loosely-coupled distributed processes.

Evolves run on the zero-decode streaming path: the daemon takes one
splice map (raw ``~beginTS`` suffix -> serialized new RID) from the PSN
record and each index re-points its own groomed entry blobs by raw RID
splices -- no :class:`IndexEntry` or RID is built per index per record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.entry import Zone
from repro.core.evolve import EvolveError, EvolveResult, RidSplices
from repro.faults.crash import crash_point
from repro.storage.metrics import ReadIntent
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.postgroomer import PostGroomer, PostGroomOp
from repro.wildfire.schema import TableSchema

# Groomed blocks of PSN p are deleted only once PSN p + this grace has
# evolved, so queries that raced an evolve can still resolve groomed RIDs
# ("eventually deleted", section 5.4).
GROOMED_BLOCK_GRACE_PSNS = 1


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
    ) -> None:
        self.schema = schema
        self.catalog = catalog
        self.indexes = indexes
        self.index = indexes.primary.index  # the primary index
        self.post_groomer = post_groomer
        self._lock = threading.Lock()
        self.evolves_applied = 0

    # -- polling ------------------------------------------------------------------

    def splices_of(self, op: PostGroomOp) -> RidSplices:
        """``op``'s splice map (raw ``~beginTS`` suffix -> serialized
        post-groomed RID): the one its PSN record published, which spares
        every block fetch, or -- once released because every index then
        attached had evolved it -- the same map rebuilt from its blocks'
        columns (a maintenance read: consumed once, not query traffic)."""
        if op.splices:
            return op.splices
        splices = RidSplices()
        for block_id in op.post_groomed_block_ids:
            splices.update(self.catalog.get_block(
                Zone.POST_GROOMED, block_id, intent=ReadIntent.MAINTENANCE
            ).rid_splices())
        return splices

    def step(self) -> Optional[IndexerStepResult]:
        """Apply the next pending PSN: one evolve per attached index."""
        with self._lock:
            next_psn = self.indexes.min_indexed_psn() + 1
            if next_psn > self.post_groomer.max_psn:
                return None
            crash_point("indexer.pre_evolve")
            op = self.post_groomer.get_op(next_psn)

            # One splice map serves every index: evolve never rebuilds an
            # entry, it splices RIDs into each index's own groomed blobs.
            splices = self.splices_of(op)
            # beginTS values identify record versions because only the
            # groomer writes groomed blocks (``compose_begin_ts(cycle,
            # order)``).  Duplicates would collapse in the map, and
            # splicing from it would point several index entries at one
            # record: refuse before any index evolves.
            if len(splices) < op.record_count:
                raise EvolveError(
                    f"PSN {op.psn}: {op.record_count} records but only "
                    f"{len(splices)} distinct beginTS values; no "
                    "index evolved"
                )
            primary_result: Optional[EvolveResult] = None
            secondary_results: List[EvolveResult] = []
            for shard_index in self.indexes.all():
                if shard_index.index.indexed_psn >= next_psn:
                    continue  # already evolved (e.g. resumed after crash)
                result = shard_index.index.evolve_streaming(
                    op.psn, splices, op.min_groomed_id, op.max_groomed_id
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
            grace_psn = op.psn - GROOMED_BLOCK_GRACE_PSNS
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

    def drain(self) -> List[IndexerStepResult]:
        """Apply every pending evolve (at most 64), in PSN order."""
        results: List[IndexerStepResult] = []
        for _ in range(64):
            result = self.step()
            if result is None:
                break
            results.append(result)
        return results


__all__ = ["IndexerDaemon", "IndexerStepResult"]
