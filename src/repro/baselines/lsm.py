"""A classic single-store LSM index with the fixed-RID assumption.

This is the design Umzi's section 3 argues against for HTAP: a standard
LSM secondary index (LevelDB/RocksDB-style levels; WiscKey-style key->RID
entries) that knows nothing about zones.  It works fine while RIDs are
stable -- and *breaks* when data evolves between zones and RIDs change,
because its only remedies are (a) serving dangling RIDs or (b) a full
rebuild (:meth:`ClassicLSMIndex.rebuild_with_rids`), whose cost the
ablation benchmark compares against Umzi's incremental evolve.

Its merge policy is the textbook *leveling* of section 2.2: one run per
level; a run moves up by merging into the next level's run whenever it
exceeds its level's capacity.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.builder import RunBuilder
from repro.core.definition import IndexDefinition
from repro.core.entry import IndexEntry, RID, RID_BYTES, Zone
from repro.core.merge import merge_blocks, merge_entry_blob_streams
from repro.core.query import MAX_QUERY_TS
from repro.core.run import IndexRun, Synopsis
from repro.core.search import lookup_key_in_run, search_run
from repro.core.encoding import prefix_successor
from repro.storage.hierarchy import StorageHierarchy


# Level ``i`` holds up to ``memtable_limit * SIZE_RATIO ** (i + 1)`` entries.
SIZE_RATIO = 4


class ClassicLSMIndex:
    """Single-zone LSM index over (key -> beginTS, RID) entries."""

    def __init__(
        self, definition: IndexDefinition, memtable_limit: int = 1024
    ) -> None:
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.definition = definition
        self.hierarchy = StorageHierarchy()
        self.memtable_limit = memtable_limit
        self.builder = RunBuilder(definition, self.hierarchy)
        self._memtable: List[IndexEntry] = []
        # levels[i] -> runs at level i, newest first.
        self._levels: List[List[IndexRun]] = []
        self._run_seq = 0
        self._lock = threading.Lock()
        self.flushes = 0
        self.merges = 0

    # -- writes -----------------------------------------------------------------------

    def insert(self, entry: IndexEntry) -> None:
        with self._lock:
            self._memtable.append(entry)
            if len(self._memtable) >= self.memtable_limit:
                self._flush_locked()

    def insert_many(self, entries: Iterable[IndexEntry]) -> None:
        for entry in entries:
            self.insert(entry)

    def flush(self) -> None:
        with self._lock:
            if self._memtable:
                self._flush_locked()

    def _flush_locked(self, maybe_merge: bool = True) -> None:
        run = self._build_run(self._memtable, level=0)
        self._memtable = []
        self.flushes += 1
        self._install(run, level=0)
        if maybe_merge:
            self._merge_leveling()

    def _next_run_id(self) -> str:
        run_id = f"classic-lsm-{self._run_seq:06d}"
        self._run_seq += 1
        return run_id

    def _build_run(self, entries: List[IndexEntry], level: int) -> IndexRun:
        run_id = self._next_run_id()
        return self.builder.build(
            run_id=run_id,
            entries=entries,
            zone=Zone.GROOMED,  # zone is only a label here; one store
            level=level,
            min_groomed_id=0,
            max_groomed_id=0,
        )

    def _merge_runs(self, inputs: List[IndexRun], level: int) -> IndexRun:
        """Merge ``inputs`` (newest first) into one run at ``level``.

        Reuses the core block-granular K-way merge: entry bytes move from
        the input blocks to the new run verbatim, so baseline-vs-Umzi
        numbers compare index *designs*, not decode overhead.
        """
        return self.builder.build_from_columns(
            run_id=self._next_run_id(),
            batches=merge_blocks(inputs),
            synopsis=Synopsis.union([r.header.synopsis for r in inputs]),
            zone=Zone.GROOMED,
            level=level,
            min_groomed_id=0,
            max_groomed_id=0,
        )

    def _install(self, run: IndexRun, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
        self._levels[level].insert(0, run)

    def _capacity(self, level: int) -> int:
        return self.memtable_limit * (SIZE_RATIO ** (level + 1))

    def _merge_leveling(self) -> None:
        level = 0
        while level < len(self._levels):
            runs = self._levels[level]
            # Leveling invariant: at most one run per level; a freshly
            # flushed/merged extra run triggers an immediate merge.
            too_many = len(runs) > 1
            too_big = runs and runs[0].entry_count > self._capacity(level)
            if not (too_many or too_big):
                level += 1
                continue
            next_runs = (
                self._levels[level + 1] if level + 1 < len(self._levels) else []
            )
            inputs = list(runs) + list(next_runs)
            new_run = self._merge_runs(inputs, level=level + 1)
            for run in inputs:
                self.hierarchy.delete_namespace(run.run_id)
            self._levels[level] = []
            while len(self._levels) <= level + 1:
                self._levels.append([])
            self._levels[level + 1] = [new_run]
            self.merges += 1
            level += 1

    # -- reads ------------------------------------------------------------------------------

    def _runs_newest_first(self) -> List[IndexRun]:
        runs: List[IndexRun] = []
        for level_runs in self._levels:
            runs.extend(level_runs)
        return runs

    def lookup(
        self, key_bytes: bytes, query_ts: int = MAX_QUERY_TS
    ) -> Optional[IndexEntry]:
        best: Optional[IndexEntry] = None
        upper = prefix_successor(key_bytes)
        with self._lock:
            memtable = list(self._memtable)
            runs = self._runs_newest_first()
        for entry in memtable:
            if (
                entry.key_bytes(self.definition) == key_bytes
                and entry.begin_ts <= query_ts
                and (best is None or entry.begin_ts > best.begin_ts)
            ):
                best = entry
        if best is not None:
            return best
        for run in runs:
            hit = lookup_key_in_run(run, key_bytes, query_ts)
            if hit is not None:
                return hit
        return None

    def scan(
        self,
        lower_key: bytes,
        upper_exclusive: bytes,
        query_ts: int = MAX_QUERY_TS,
    ) -> List[IndexEntry]:
        """Newest visible version per key in byte range, key-ordered."""
        with self._lock:
            memtable = list(self._memtable)
            runs = self._runs_newest_first()
        best: Dict[bytes, IndexEntry] = {}
        for entry in memtable:
            key = entry.key_bytes(self.definition)
            in_range = lower_key <= key and (
                upper_exclusive == b"" or key < upper_exclusive
            )
            if in_range and entry.begin_ts <= query_ts:
                current = best.get(key)
                if current is None or entry.begin_ts > current.begin_ts:
                    best[key] = entry
        for run in runs:
            for entry in search_run(run, lower_key, upper_exclusive, query_ts):
                key = entry.key_bytes(self.definition)
                current = best.get(key)
                if current is None or entry.begin_ts > current.begin_ts:
                    best[key] = entry
        return [best[key] for key in sorted(best)]

    # -- the fixed-RID weakness ---------------------------------------------------------------

    def rebuild_with_rids(
        self, remap_raw: Callable[[bytes, bytes], Optional[RID]]
    ) -> int:
        """Full rebuild after RIDs change (the only correct response a
        zone-oblivious LSM index has to data evolution).

        Zero-decode: entries stream off the runs as raw ``(sort_key,
        entry_blob)`` pairs, ``remap_raw(sort_key, blob)`` decides the new
        RID from the raw slices (``beginTS`` is the sort key's fixed
        8-byte suffix, the old RID the blob's fixed 13-byte suffix) or
        returns ``None`` to keep the old one, and the rewrite is a splice
        over that suffix -- no :class:`IndexEntry` is ever materialized.
        Because it reuses the K-way blob merge, *physical duplicates* --
        the same ``(key, beginTS)`` version present in several runs --
        collapse to the newest run's copy (and are not counted as
        rewritten).  Returns the number of entries rewritten.  Compare the
        cost of this rebuild with Umzi's incremental evolve in
        ``benchmarks/bench_ablation_baselines.py``.
        """
        with self._lock:
            if self._memtable:
                # Runs are the raw substrate; flush pending entries into
                # one (each is serialized exactly once by the builder) so
                # the whole rebuild streams blobs.  Suppress the merge
                # policy -- the rebuild collapses everything into one run
                # anyway.
                self._flush_locked(maybe_merge=False)
            runs = self._runs_newest_first()
            if not runs:
                return 0
            rewritten, sort_keys, blobs = 0, [], []
            for sort_key, blob in merge_entry_blob_streams(self.definition, runs):
                new_rid = remap_raw(sort_key, blob)
                if new_rid is not None:
                    new_rid_bytes = new_rid.to_bytes()
                    if new_rid_bytes != blob[-RID_BYTES:]:
                        rewritten += 1
                        blob = blob[:-RID_BYTES] + new_rid_bytes
                sort_keys.append(sort_key)
                blobs.append(blob)

            new_run = self.builder.build_from_columns(
                run_id=self._next_run_id(),
                batches=[(sort_keys, blobs)],
                synopsis=Synopsis.union([r.header.synopsis for r in runs]),
                zone=Zone.GROOMED,
                level=0,
                min_groomed_id=0,
                max_groomed_id=0,
            )
            for run in runs:
                self.hierarchy.delete_namespace(run.run_id)
            self._levels = []
            self._install(new_run, 0)
            self._merge_leveling()
            return rewritten

    # -- introspection ---------------------------------------------------------------------------


__all__ = ["ClassicLSMIndex"]
