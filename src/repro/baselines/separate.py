"""Separate per-zone indexes with a query-side union (the divided view).

MemSQL-style alternative (paper sections 1, 9): each zone gets its own
independent index, and nothing coordinates them.  Queries must search both
structures and combine the results themselves, and during data evolution
there is a window where a record version exists in *both* indexes (if the
post-groomed side is populated before the groomed side is trimmed) or in
*neither* (the opposite order) -- precisely the "duplicate or missing data"
hazard the paper cites as motivation for a unified index.

The evolution window is made explicit and injectable
(:meth:`SeparateZoneIndexes.begin_evolution` /
:meth:`finish_evolution`) so tests and benchmarks can demonstrate both
anomaly modes, and the query-cost overhead of the divided view is
measurable against Umzi on identical workloads.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Iterable, List, Optional

from repro.baselines.btree import SortedArrayIndex
from repro.core.definition import IndexDefinition
from repro.core.entry import IndexEntry
from repro.core.query import MAX_QUERY_TS


class EvolutionOrder(str, enum.Enum):
    """Which side of the un-coordinated migration happens first."""

    ADD_THEN_REMOVE = "add_then_remove"  # window shows duplicates
    REMOVE_THEN_ADD = "remove_then_add"  # window loses data


class SeparateZoneIndexes:
    """Two independent single-zone indexes, no unified view."""

    def __init__(
        self,
        definition: IndexDefinition,
        evolution_order: EvolutionOrder = EvolutionOrder.ADD_THEN_REMOVE,
    ) -> None:
        self.definition = definition
        self.evolution_order = evolution_order
        self.groomed = SortedArrayIndex(definition)
        self.post_groomed = SortedArrayIndex(definition)
        self._lock = threading.Lock()
        self._mid_evolution = False

    # -- ingestion ---------------------------------------------------------------------

    def add_groomed(self, entries: Iterable[IndexEntry]) -> None:
        with self._lock:
            self.groomed.insert_many(entries)

    # -- the un-coordinated migration ----------------------------------------------------

    def evolve(
        self,
        groomed_entries: List[IndexEntry],
        post_groomed_entries: List[IndexEntry],
    ) -> None:
        """Atomic-looking migration (both halves under one lock).

        Even this "best case" for the divided view still leaves queries
        paying for two searches; the anomaly modes need the split version
        below.
        """
        self.begin_evolution(groomed_entries, post_groomed_entries)
        self.finish_evolution(groomed_entries, post_groomed_entries)

    def begin_evolution(
        self,
        groomed_entries: List[IndexEntry],
        post_groomed_entries: List[IndexEntry],
    ) -> None:
        """First half of the migration; leaves the divided view mid-window."""
        with self._lock:
            if self.evolution_order is EvolutionOrder.ADD_THEN_REMOVE:
                self.post_groomed.insert_many(post_groomed_entries)
            else:
                self._remove_from_groomed(groomed_entries)
            self._mid_evolution = True

    def finish_evolution(
        self,
        groomed_entries: List[IndexEntry],
        post_groomed_entries: List[IndexEntry],
    ) -> None:
        with self._lock:
            if self.evolution_order is EvolutionOrder.ADD_THEN_REMOVE:
                self._remove_from_groomed(groomed_entries)
            else:
                self.post_groomed.insert_many(post_groomed_entries)
            self._mid_evolution = False

    def _remove_from_groomed(self, entries: List[IndexEntry]) -> None:
        doomed = {
            (entry.key_bytes(self.definition), entry.begin_ts) for entry in entries
        }
        survivors = [
            entry
            for entry in self.groomed._entries  # baseline-internal access
            if (entry.key_bytes(self.definition), entry.begin_ts) not in doomed
        ]
        rebuilt = SortedArrayIndex(self.definition)
        rebuilt.insert_many(survivors)
        self.groomed = rebuilt

    @property
    def mid_evolution(self) -> bool:
        return self._mid_evolution

    # -- divided-view queries --------------------------------------------------------------

    def lookup(
        self, key_bytes: bytes, query_ts: int = MAX_QUERY_TS
    ) -> Optional[IndexEntry]:
        """Query both indexes and reconcile manually (the extra work)."""
        groomed_hit = self.groomed.lookup(key_bytes, query_ts)
        post_hit = self.post_groomed.lookup(key_bytes, query_ts)
        if groomed_hit is None:
            return post_hit
        if post_hit is None:
            return groomed_hit
        return groomed_hit if groomed_hit.begin_ts >= post_hit.begin_ts else post_hit

    def scan(
        self,
        lower_key: bytes,
        upper_exclusive: bytes,
        query_ts: int = MAX_QUERY_TS,
    ) -> List[IndexEntry]:
        """Union of both scans with client-side dedup by key."""
        combined: Dict[bytes, IndexEntry] = {}
        for side in (self.post_groomed, self.groomed):
            for entry in side.scan(lower_key, upper_exclusive, query_ts):
                key = entry.key_bytes(self.definition)
                current = combined.get(key)
                if current is None or entry.begin_ts > current.begin_ts:
                    combined[key] = entry
        return [combined[key] for key in sorted(combined)]

    def scan_naive_union(
        self,
        lower_key: bytes,
        upper_exclusive: bytes,
        query_ts: int = MAX_QUERY_TS,
    ) -> List[IndexEntry]:
        """Union *without* dedup -- what a naive client gets.

        Mid-evolution (ADD_THEN_REMOVE order) this returns duplicate rows;
        mid-evolution with REMOVE_THEN_ADD it silently misses rows.  Tests
        assert both anomalies to motivate Umzi's unified view.
        """
        results = list(self.groomed.scan(lower_key, upper_exclusive, query_ts))
        results.extend(self.post_groomed.scan(lower_key, upper_exclusive, query_ts))
        return results


__all__ = ["EvolutionOrder", "SeparateZoneIndexes"]
