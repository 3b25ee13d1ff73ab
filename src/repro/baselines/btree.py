"""An in-memory fully-sorted multi-version index.

Conceptually a B+-tree flattened into a sorted array (bisect-based); used

* as a microbenchmark baseline that pays no LSM overheads (no runs, no
  reconciliation) but also offers no write optimization -- every insert is
  an O(n) array insertion; and
* as the **oracle** for property-based tests: its answers define correct
  multi-version semantics for lookups and range scans.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional

from repro.core.definition import IndexDefinition
from repro.core.encoding import prefix_successor
from repro.core.entry import IndexEntry


class SortedArrayIndex:
    """Sorted-array multi-version index with Umzi-identical semantics."""

    def __init__(self, definition: IndexDefinition) -> None:
        self.definition = definition
        self._keys: List[bytes] = []  # full sort keys (key bytes + ~beginTS)
        self._entries: List[IndexEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    # -- writes -------------------------------------------------------------------

    def insert(self, entry: IndexEntry) -> None:
        sort_key = entry.sort_key(self.definition)
        position = bisect.bisect_left(self._keys, sort_key)
        if position < len(self._keys) and self._keys[position] == sort_key:
            # Same key and beginTS: replace (exact-duplicate semantics).
            self._entries[position] = entry
            return
        self._keys.insert(position, sort_key)
        self._entries.insert(position, entry)

    def insert_many(self, entries: Iterable[IndexEntry]) -> None:
        for entry in entries:
            self.insert(entry)

    # -- reads ----------------------------------------------------------------------

    def lookup(self, key_bytes: bytes, query_ts: int) -> Optional[IndexEntry]:
        """Newest version of ``key_bytes`` with ``beginTS <= query_ts``."""
        results = self.scan(key_bytes, prefix_successor(key_bytes), query_ts)
        return results[0] if results else None

    def scan(
        self, lower_key: bytes, upper_exclusive: bytes, query_ts: int
    ) -> List[IndexEntry]:
        """Newest visible version of every key in the byte range."""
        start = bisect.bisect_left(self._keys, lower_key)
        definition = self.definition
        results: List[IndexEntry] = []
        previous_key: Optional[bytes] = None
        answered = False
        for position in range(start, len(self._keys)):
            entry = self._entries[position]
            key = entry.key_bytes(definition)
            if upper_exclusive != b"" and key >= upper_exclusive:
                break
            if key != previous_key:
                previous_key = key
                answered = False
            if answered:
                continue
            if entry.begin_ts > query_ts:
                continue
            answered = True
            results.append(entry)
        return results

    def all_versions(self, key_bytes: bytes) -> List[IndexEntry]:
        """Every version of one key, newest first (test introspection)."""
        start = bisect.bisect_left(self._keys, key_bytes)
        upper = prefix_successor(key_bytes)
        out: List[IndexEntry] = []
        for position in range(start, len(self._keys)):
            entry = self._entries[position]
            key = entry.key_bytes(self.definition)
            if upper != b"" and key >= upper:
                break
            out.append(entry)
        return out


__all__ = ["SortedArrayIndex"]
