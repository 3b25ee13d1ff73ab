"""The groomer (paper section 2.1).

Each groom operation drains the committed log, merges transactions in time
order, resolves conflicts by assigning monotonically increasing ``beginTS``
values (groom cycle in the high-order bits, intra-batch commit order in the
low-order bits -- "the commit time of transactions in Wildfire is
effectively postponed to the groom time"), writes one columnar groomed
block to shared storage, and builds an index run over it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.crash import crash_point
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.clock import HybridClock, compose_begin_ts_column
from repro.wildfire.columnar import encode_batch
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.schema import ColumnBatch, TableSchema
from repro.wildfire.txlog import CommittedLog, CommittedTransaction


@dataclass(frozen=True)
class GroomResult:
    """What one groom cycle produced."""

    groomed_block_id: int
    index_run_ids: Tuple[Tuple[str, str], ...] = ()  # (index name, run id)


class Groomer:
    """Periodic live-zone -> groomed-zone migration for one shard."""

    def __init__(
        self,
        schema: TableSchema,
        clock: HybridClock,
        committed_log: CommittedLog,
        catalog: BlockCatalog,
        indexes: ShardIndexes,
    ) -> None:
        self.schema = schema
        self.clock = clock
        self.committed_log = committed_log
        self.catalog = catalog
        self.indexes = indexes
        self._lock = threading.Lock()
        self.grooms_done = 0

    def groom(self) -> Optional[GroomResult]:
        """One groom operation; returns ``None`` if the live zone is empty.

        A groom writes the groomed block and one run per index from the
        drained rows themselves: it reads no block.
        """
        with self._lock:
            # Before the drain: a crash here loses no committed work (the
            # log is re-drained after recovery).
            crash_point("groom.enter")
            transactions = self.committed_log.drain()
            if not transactions:
                return None
            try:
                return self._groom_drained(transactions)
            except Exception:
                # Abort safety (ISSUE 7): the drain already consumed the
                # rows; hand them back before surfacing the error, whatever
                # it is, so nothing is lost without a crash/recover cycle.
                # What half-landed (the block, runs some index published)
                # no snapshot covers; the retried groom supersedes it.  A
                # SimulatedCrash is a BaseException and passes through: a
                # crash loses the process, not an abort.
                self.committed_log.requeue(transactions)
                raise

    def _groom_drained(
        self, transactions: List[CommittedTransaction]
    ) -> GroomResult:
        cycle = self.clock.next_groom_cycle()

        # Merge transactions in commit order; beginTS = (cycle | order).
        # The low-order component preserves the replicas' commit order
        # while keeping every record version's timestamp unique and
        # monotonic within the cycle.
        batch = ColumnBatch.concat([tx.batch for tx in transactions])  # commit order
        begin_ts = compose_begin_ts_column(cycle, len(batch))
        # The user columns are encoded once, for the block and every index.
        encoded = encode_batch(self.schema, batch.columns)

        block = self.catalog.store_groomed(tuple(zip(*batch.columns)), begin_ts, encoded)
        crash_point("groom.pre_index")

        # One run per index, built column at a time.  The cycle is readable
        # only then: a read at a snapshot covering rows some index lacks
        # could miss one that a later read at that snapshot finds.
        run_ids = self.indexes.build_groomed_runs(block, batch.columns, encoded)
        self.clock.publish_groom_cycle(cycle)
        self.grooms_done += 1
        return GroomResult(
            groomed_block_id=block.block_id,
            index_run_ids=tuple(sorted(run_ids.items())),
        )


__all__ = ["GroomResult", "Groomer"]
