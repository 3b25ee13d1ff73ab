"""Per-index access-path statistics, zero-decode (ISSUE 9, layer 1).

Everything the cost model consumes is already sitting in run headers:
entry counts, levels, and the per-key-column min/max synopses the paper's
run-pruning uses (section 4.3).  This module folds the current version's
headers into one :class:`AccessPathSynopsis` per index -- no entry is
decoded, no block is read (headers are resident after publication) -- and
caches the result keyed on the index's versionset publication sequence,
so the statistics refresh themselves across every groom/evolve/merge
exactly when the run lists change and never otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.definition import ColumnType
from repro.core.run import ColumnRange


@dataclass(frozen=True)
class AccessPathSynopsis:
    """One index's planner-facing statistics at one version.

    ``key_ranges`` is the position-wise union of the visible runs'
    synopsis ranges over the index's key columns (equality then sort
    order); ``distinct_prefix[i]`` estimates the distinct count of the
    first ``i`` key columns (``[0] == 1``), derived from INT64 range
    spans and the bounded string-prefix sketch of
    :func:`_string_prefix_span`, capped at the entry count -- a
    deliberately cheap estimate whose only job is ranking candidate
    paths.
    """

    index_name: str
    version_seq: int
    run_count: int
    entry_count: int
    level_entry_counts: Tuple[Tuple[int, int], ...]
    key_ranges: Tuple[Optional[ColumnRange], ...]
    key_types: Tuple[ColumnType, ...]
    distinct_prefix: Tuple[int, ...]


def _string_prefix_span(
    low: str, high: str, observed: int, cap: int
) -> int:
    """Distinct-count sketch for a STRING key column, zero decodes.

    The old fallback pinned string columns at the entry-count cap, which
    made every string-keyed secondary look maximally selective per
    column and priced realistic scans absurdly low (ISSUE 10).  This
    sketch reads only the merged min/max bounds the run headers already
    carry: strip the common prefix, interpret the next (at most) two
    characters of each bound as a big-endian integer, and use the span
    between them.  ``c0``/``c4`` gives exactly 5; ``c00``/``c15`` gives
    262 -- an overestimate, but orders of magnitude closer than the cap.
    ``observed`` (distinct boundary values actually seen across run
    headers) supplies a floor, and the entry count a ceiling.
    """
    prefix = 0
    limit = min(len(low), len(high))
    while prefix < limit and low[prefix] == high[prefix]:
        prefix += 1
    tail = min(2, limit - prefix)
    if tail <= 0:
        span = 1 if low == high else 2
    else:
        low_num = high_num = 0
        for pos in range(prefix, prefix + tail):
            low_num = (low_num << 8) + ord(low[pos])
            high_num = (high_num << 8) + ord(high[pos])
        span = high_num - low_num + 1
    return max(1, min(cap, max(span, observed)))


def build_synopsis(shard_index, version_seq: int) -> AccessPathSynopsis:
    """Fold one index's visible run headers into an AccessPathSynopsis."""
    index = shard_index.index
    key_specs = index.definition.key_columns
    width = len(key_specs)
    runs = index.visible_runs()
    entry_count = 0
    levels: Dict[int, int] = {}
    merged: List[Optional[ColumnRange]] = [None] * width
    bounds_seen: List[set] = [set() for _ in range(width)]
    for run in runs:
        header = run.header
        entry_count += header.entry_count
        levels[header.level] = levels.get(header.level, 0) + header.entry_count
        ranges = header.synopsis.ranges
        for pos in range(min(width, len(ranges))):
            found = ranges[pos]
            if found is None:
                continue
            bounds_seen[pos].add(found.min_value)
            bounds_seen[pos].add(found.max_value)
            current = merged[pos]
            merged[pos] = found if current is None else ColumnRange(
                min(current.min_value, found.min_value),
                max(current.max_value, found.max_value),
            )
    cap = max(1, entry_count)
    distinct: List[int] = [1]
    running = 1
    for pos, spec in enumerate(key_specs):
        column_range = merged[pos]
        if spec.ctype is ColumnType.INT64 and column_range is not None:
            span = int(column_range.max_value) - int(column_range.min_value) + 1
            per_column = max(1, min(cap, span))
        elif spec.ctype is ColumnType.STRING and column_range is not None:
            per_column = _string_prefix_span(
                str(column_range.min_value),
                str(column_range.max_value),
                len(bounds_seen[pos]),
                cap,
            )
        else:
            per_column = cap
        running = min(cap, running * per_column)
        distinct.append(running)
    return AccessPathSynopsis(
        index_name=shard_index.name,
        version_seq=version_seq,
        run_count=len(runs),
        entry_count=entry_count,
        level_entry_counts=tuple(sorted(levels.items())),
        key_ranges=tuple(merged),
        key_types=tuple(spec.ctype for spec in key_specs),
        distinct_prefix=tuple(distinct),
    )


class SynopsisCatalog:
    """Shard-level cache of per-index synopses, version-seq refreshed.

    The versionset publication hook already increments
    ``lifecycle.version_seq`` on *every* run-list mutation, so freshness
    is one integer compare: a cached synopsis is served while its
    sequence matches, and rebuilt (again zero-decode) the first time a
    planner call observes a newer publication.  The sequence is read
    *before* the headers are collected, so a publication racing the
    rebuild at worst re-stamps the cache with an already-stale sequence
    and the next call rebuilds again -- conservative, never wrong.
    """

    def __init__(self, indexes) -> None:
        # Duck-typed ShardIndexes: needs .get(name) -> ShardIndex, .all()
        # and .names(); keeps the planner package free of wildfire imports.
        self._indexes = indexes
        self._cache: Dict[str, AccessPathSynopsis] = {}
        # What the smart planner derived from these synopses, per query
        # shape (``repro.planner.smart._Derived``), each stamped.
        self.derived: Dict[Tuple, object] = {}

    def synopsis(self, name: str) -> AccessPathSynopsis:
        shard_index = self._indexes.get(name)
        seq = shard_index.index.lifecycle.version_seq
        cached = self._cache.get(name)
        if cached is not None and cached.version_seq == seq:
            return cached
        built = build_synopsis(shard_index, seq)
        self._cache[name] = built
        return built

    def stamp(self) -> List[int]:
        """Every index's publication sequence: equal stamps mean
        :meth:`synopsis` would hand back the same objects, so whatever was
        derived from them still holds."""
        return [
            shard_index.index.lifecycle.version_seq
            for shard_index in self._indexes.all()
        ]

    def snapshot(self) -> Dict[str, AccessPathSynopsis]:
        """Fresh synopses for every index of the shard (tests, tools)."""
        return {name: self.synopsis(name) for name in self._indexes.names()}


__all__ = ["AccessPathSynopsis", "SynopsisCatalog", "build_synopsis"]
