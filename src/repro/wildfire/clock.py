"""Timestamp generation (paper sections 2.1-2.2).

"The beginTS set by the groomer is composed of two parts.  The higher
order part is based on the groomer's timestamp, while the lower order part
is the transaction commit time in the shard replica.  Thus, the commit
time of transactions in Wildfire is effectively postponed to the groom
time."

The simulation uses a logical hybrid clock: the groom cycle number fills
the high-order bits and the per-replica commit sequence the low-order
bits, giving globally monotonic, deterministic ``beginTS`` values --
exactly the monotonicity the index relies on, without wall-clock noise.
"""

from __future__ import annotations

import threading

COMMIT_BITS = 24
_COMMIT_MASK = (1 << COMMIT_BITS) - 1


def compose_begin_ts(groom_cycle: int, commit_seq: int) -> int:
    """Hybrid ``beginTS``: groom cycle (high bits) | commit sequence (low)."""
    if groom_cycle < 0 or commit_seq < 0:
        raise ValueError("clock components must be non-negative")
    return ((groom_cycle + 1) << COMMIT_BITS) | (commit_seq & _COMMIT_MASK)


def compose_begin_ts_column(groom_cycle: int, count: int) -> "list[int]":
    """``compose_begin_ts(groom_cycle, order)`` for every ``order`` below
    ``count``: one groomed batch's ``beginTS`` column, bit for bit."""
    high = compose_begin_ts(groom_cycle, 0)
    return [high | (order & _COMMIT_MASK) for order in range(count)]


def cycles_span(cycles: int) -> int:
    """How far apart two ``beginTS`` values ``cycles`` groom cycles apart are."""
    return cycles << COMMIT_BITS


def decompose_begin_ts(begin_ts: int) -> "tuple[int, int]":
    """Inverse of :func:`compose_begin_ts` (debugging / tests)."""
    return (begin_ts >> COMMIT_BITS) - 1, begin_ts & _COMMIT_MASK


class HybridClock:
    """Thread-safe source of commit sequences and groom cycles.

    ``groom_cycle`` and ``snapshot_ts`` (queries' default: every groom
    cycle published so far) change under the lock, are read without it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._commit_seq = 0
        self.groom_cycle = 0
        self.snapshot_ts = compose_begin_ts(0, _COMMIT_MASK)

    def next_commit_seq(self) -> int:
        """Tentative commit time assigned when a transaction commits."""
        with self._lock:
            self._commit_seq += 1
            return self._commit_seq

    def next_groom_cycle(self) -> int:
        """Advance to (and return) the next groom cycle number; its
        versions become readable at :meth:`publish_groom_cycle`."""
        with self._lock:
            self.groom_cycle += 1
            return self.groom_cycle

    def state(self) -> "tuple[int, int]":
        """Atomic ``(groom_cycle, commit_seq)`` snapshot."""
        with self._lock:
            return (self.groom_cycle, self._commit_seq)

    def publish_groom_cycle(self, groom_cycle: int, commit_seq: int = 0):
        """Make ``groom_cycle`` readable (``snapshot_ts`` covers it) and
        fast-forward so future timestamps sort after it; forward-only.

        A groom calls this once every index holds its versions (an aborted
        one never does).  Split and merge hand a quiesced source's state to
        each target: every ``beginTS`` the target assigns then compares
        strictly newer than anything the source groomed, which is what
        makes the migration window's newest-wins double reads correct.
        """
        newest = compose_begin_ts(groom_cycle, _COMMIT_MASK)
        with self._lock:
            self.groom_cycle = max(self.groom_cycle, groom_cycle)
            self._commit_seq = max(self._commit_seq, commit_seq)
            self.snapshot_ts = max(self.snapshot_ts, newest)


__all__ = ["COMMIT_BITS", "HybridClock", "compose_begin_ts",
           "compose_begin_ts_column", "cycles_span", "decompose_begin_ts"]
