"""The live zone: transaction side-logs and the committed log (section 2.1).

A transaction appends uncommitted changes to a private side-log; on commit
the side-log is stamped with a tentative commit time and appended to the
committed transaction log.  The committed log "is kept in memory for fast
access, and also persisted on the local SSDs" -- the simulation keeps the
records in memory and charges SSD write latency for the persisted copy.

The groomer drains the committed log in time order.  The live zone is not
indexed (section 3: it stays small because grooming is frequent).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.encoding import KeyValue
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy


@dataclass
class CommittedTransaction:
    """One committed transaction's upserts, in write order."""

    commit_seq: int
    replica_id: int
    rows: List[Tuple[KeyValue, ...]]


class CommittedLog:
    """The shard's committed, replicated transaction log.

    ``drain()`` hands everything committed so far to the groomer and resets
    the live zone (the paper's groom "bounds the growth of the committed
    log").
    """

    def __init__(
        self,
        hierarchy: Optional[StorageHierarchy] = None,
        namespace: str = "live-log",
    ) -> None:
        self._lock = threading.Lock()
        self._transactions: List[CommittedTransaction] = []
        self._hierarchy = hierarchy
        self._namespace = namespace
        self._persist_ordinal = 0

    def append(self, transaction: CommittedTransaction) -> None:
        with self._lock:
            self._transactions.append(transaction)
        self._persist(transaction)

    def _persist(self, transaction: CommittedTransaction) -> None:
        """Charge the SSD cost of persisting the committed log segment."""
        if self._hierarchy is None:
            return
        # Only the byte volume matters for accounting; a compact length
        # estimate (rows x rough row size) avoids full serialization cost.
        approx = 16 + 16 * len(transaction.rows) + 8 * sum(map(len, transaction.rows))
        with self._lock:
            ordinal = self._persist_ordinal
            self._persist_ordinal += 1
        self._hierarchy.ssd.write(
            Block(BlockId(self._namespace, ordinal), b"\x00" * approx)
        )

    def drain(self) -> List[CommittedTransaction]:
        """Remove and return all committed transactions, in commit order."""
        with self._lock:
            drained = self._transactions
            self._transactions = []
        drained.sort(key=lambda tx: tx.commit_seq)
        if self._hierarchy is not None:
            # Groomed data supersedes the persisted log segments.
            self._hierarchy.ssd.delete_namespace(self._namespace)
        return drained

    def requeue(self, transactions: Iterable[CommittedTransaction]) -> None:
        """Put drained transactions back at the head of the live zone.

        Abort safety for the groomer (ISSUE 7): ``drain()`` consumes the
        log *before* the groomed block is written, so a groom that aborts
        mid-flight (storage brownout, breaker fast-fail) must hand the
        rows back or they would only survive via crash recovery.  The
        requeued transactions keep their original commit sequence, so a
        later drain re-sorts them into the identical commit order.
        """
        restored = list(transactions)
        if not restored:
            return
        with self._lock:
            self._transactions = restored + self._transactions
        if self._hierarchy is not None:
            # Re-charge the persisted copy the aborted drain deleted.
            for transaction in restored:
                self._persist(transaction)

    def pending_rows(self) -> int:
        with self._lock:
            return sum(len(tx.rows) for tx in self._transactions)

    def peek(self) -> List[CommittedTransaction]:
        """Read the live zone without draining (live-zone queries)."""
        with self._lock:
            return list(self._transactions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._transactions)


__all__ = ["CommittedLog", "CommittedTransaction"]
