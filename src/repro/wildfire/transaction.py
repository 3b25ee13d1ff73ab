"""Upsert transactions (paper section 2.1).

"All inserts, updates, and deletes in Wildfire are treated as upserts based
on the user-defined primary key" with last-writer-wins semantics for
concurrent updates.  A transaction stages rows in its side-log and, at
commit, stamps them with a tentative commit sequence and appends to the
committed log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.encoding import KeyValue
from repro.wildfire.clock import HybridClock
from repro.wildfire.schema import ColumnBatch, TableSchema
from repro.wildfire.txlog import CommittedLog, CommittedTransaction


class TransactionError(RuntimeError):
    """Commit/abort misuse (double commit, use after close)."""


class Transaction:
    """A single-shard upsert transaction."""

    def __init__(
        self,
        schema: TableSchema,
        clock: HybridClock,
        committed_log: CommittedLog,
    ) -> None:
        self.schema = schema
        self._clock = clock
        self._committed_log = committed_log
        self._side_log: List[ColumnBatch] = []
        self._closed = False

    def upsert(self, values: Sequence[KeyValue]) -> None:
        """Stage one row (insert or update -- distinguished only by key)."""
        self.upsert_many((values,))

    def upsert_many(self, rows: Sequence[Sequence[KeyValue]]) -> None:
        """Stage a batch: all of it, or -- refused -- none of it (a
        :class:`ColumnBatch` this schema validated as it is)."""
        self._ensure_open()
        trusted = rows.__class__ is ColumnBatch and rows.schema is self.schema
        batch = rows if trusted else self.schema.validate_rows(rows)
        if len(batch):
            self._side_log.append(batch)

    def commit(self) -> Optional[int]:
        """Append the side-log to the committed log.

        Returns the tentative commit sequence (the low-order component of
        the eventual ``beginTS``), or ``None`` for an empty transaction.
        """
        self._ensure_open()
        self._closed = True
        if not self._side_log:
            return None
        commit_seq = self._clock.next_commit_seq()
        self._committed_log.append(CommittedTransaction(
            commit_seq=commit_seq, batch=ColumnBatch.concat(self._side_log)
        ))
        return commit_seq

    def abort(self) -> None:
        """Discard the side-log; uncommitted changes were never visible."""
        self._ensure_open()
        self._closed = True
        self._side_log = []

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransactionError("transaction already committed or aborted")


__all__ = ["Transaction", "TransactionError"]
