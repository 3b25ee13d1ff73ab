"""The hybrid merge policy and merge execution (paper section 5.3).

Policy, parameterized by ``K`` and ``T`` (see :class:`LevelConfig`):

* each level keeps at most one **active** run; the rest are inactive;
* incoming runs from level L-1 are always merged *into the active run* of
  level L (i.e. the active run and the K incoming runs are replaced by one
  new run, which becomes the new active run of L);
* the active run of L is **full** once its size reaches T times the size
  of an inactive run at L-1; a full active run is marked inactive and the
  next merge starts a fresh active run;
* when level L accumulates K inactive runs, they are merged together with
  the active run of level L+1.

Level 0 is special: grooms push completed runs, so every level-0 run is
inactive from birth.

Merges stay **within a zone** (section 4.3); crossing zones is the evolve
operation's job.  Non-persisted-level bookkeeping follows section 6.1:
persisted inputs consumed by a non-persisted output are retained in shared
storage and recorded as *ancestors*; they are physically deleted only when
a descendant run reaches a persisted level again.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import and_, eq, gt, ne, or_
from typing import Callable, Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.builder import RunBuilder
from repro.core.epoch import (
    delete_namespace_action,
    delete_run_action,
    drop_cache_action,
)
from repro.core.entry import Zone, ts_suffix_of, user_key_of
from repro.core.ids import RunIdAllocator
from repro.core.levels import LevelConfig
from repro.core.run import IndexRun, Synopsis
from repro.core.runlist import RunList
from repro.core.search import ts_floor
from repro.faults.crash import crash_point
from repro.storage.hierarchy import StorageHierarchy

# Merge steps one ``merge_until_stable`` pass may take in one zone.
MAX_MERGES_PER_ZONE = 64


@dataclass
class MergeResult:
    """What one merge step did (for logging, tests, and benchmarks)."""

    zone: Zone
    source_level: int
    target_level: int
    input_run_ids: Tuple[str, ...]
    output_run_id: str
    output_entries: int
    output_marked_inactive: bool
    deleted_run_ids: Tuple[str, ...]


class _Cursor:
    """One input run's current data block and how far it has been merged."""

    __slots__ = ("run", "block", "keys", "blobs", "at")

    def __init__(self, run: IndexRun) -> None:
        self.run = run
        self.block = 0  # the next data block to fetch

    def load(self) -> bool:
        """Fetch the run's next block (never empty); ``False`` at its end."""
        if self.block == self.run.header.num_data_blocks:
            return False
        self.keys, self.blobs = self.run.block_columns(self.block)
        self.block += 1
        self.at = 0
        return True


def merge_blocks(
    runs_newest_first: Sequence[IndexRun],
    retention_ts: Optional[int] = None,
    dead_keys: Callable[[int], Collection[bytes]] = lambda _retention_ts: (),
) -> Iterator[Tuple[List[bytes], List[bytes]]]:
    """Zero-decode K-way merge, a block at a time: yields column batches
    ``(sort_keys, entry_blobs)`` in sort-key order.

    Every input run has a cursor on one fetched block
    (:meth:`IndexRun.block_columns`; no :class:`IndexEntry` is ever
    constructed).  Each round takes the cursor whose block ends first --
    the newest run among equals -- and emits everything at or below that
    block's last key: one ``bisect`` per cursor, the slices concatenated
    newest run first and, when more than one cursor contributed, ordered
    by one *stable* sort.  Within one zone, two entries with identical
    sort keys (same key, same ``beginTS``) describe the same record
    version and are now adjacent, newest run first; the first copy wins.
    Distinct versions of a key stay, for time travel, down to a horizon.

    The exhausted cursor's next block is fetched only after the batch has
    been handed over, so blocks are read in the order, and at the count of
    consumed entries, at which a per-entry heap merge reads them
    (``tests/reference_merge.py``): a consumer that pulls under a budget
    interleaves its reads with other traffic identically.

    ``retention_ts`` collects versions, a column at a time: a key keeps
    every version above it plus its newest at or below it (what a snapshot
    at the horizon reads), and a user key ``dead_keys(retention_ts)`` holds
    (a secondary's stale keys) none at or below it; inputs all above it
    skip the filter, a fifth of the loop's time, and that call.  Every
    caller is background machinery, and a one-pass stream over potentially
    purged runs must not flood the SSD cache: input blocks are
    ``ReadIntent.MAINTENANCE`` reads.
    """
    cursors = [_Cursor(run) for run in runs_newest_first if run.entry_count]
    cursors = [cursor for cursor in cursors if cursor.load()]
    horizon = None  # no filter runs while every version is above the horizon
    if retention_ts is not None and cursors and retention_ts >= min(
        [cursor.run.header.min_begin_ts for cursor in cursors]
    ):
        horizon = ts_floor(retention_ts)
        dead = dead_keys(retention_ts)
    previous: Optional[bytes] = None  # the last sort key merged
    last_user, last_old = None, False  # the last entry's user key, at/below the horizon?
    while cursors:
        # The first of equals: the newest run.
        lead = min(cursors, key=lambda cursor: cursor.keys[-1])
        bound = lead.keys[-1]
        keys: List[bytes] = []
        blobs: List[bytes] = []
        contributors = 0
        for cursor in cursors:
            at = cursor.at
            end = bisect_right(cursor.keys, bound, at)
            if end > at:
                contributors += 1
                keys += cursor.keys[at:end]
                blobs += cursor.blobs[at:end]
                cursor.at = end
        if contributors > 1:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            keys = [keys[i] for i in order]
            blobs = [blobs[i] for i in order]
        if keys:
            fresh = list(map(ne, keys, [previous, *keys[:-1]]))
            previous = keys[-1]
            if horizon is not None:
                # Versions arrive newest first per user key, so the ones
                # at or below the horizon close its run of entries: the
                # first is the version visible at retention_ts, any after
                # it is unreachable -- as is every one of a dead key.
                old = list(map(horizon.__le__, map(ts_suffix_of, keys)))
                if any(old):
                    users = list(map(user_key_of, keys))
                    shadowed = map(and_, [last_old, *old[:-1]],
                                   map(eq, users, [last_user, *users[:-1]]))
                    if dead:
                        shadowed = map(or_, shadowed, map(dead.__contains__, users))
                    # fresh and not (old and shadowed)
                    fresh = list(map(gt, fresh, map(and_, old, shadowed)))
                    last_user = users[-1]
                last_old = old[-1]
            if not all(fresh):
                keys = list(compress(keys, fresh))
                blobs = list(compress(blobs, fresh))
            if keys:
                yield keys, blobs
        if not lead.load():
            cursors.remove(lead)


def merge_entry_blob_streams(
    definition, runs_newest_first: Sequence[IndexRun]
) -> Iterator[Tuple[bytes, bytes]]:
    """:func:`merge_blocks` flattened to ``(sort_key, entry_blob)`` pairs,
    every version kept, for consumers that count pairs (the budgeted shard
    copy, the classic-LSM baseline)."""
    for keys, blobs in merge_blocks(runs_newest_first):
        yield from zip(keys, blobs)


class MergeController:
    """Drives within-zone merges for one Umzi index instance.

    The controller owns the per-level *active run* bookkeeping.  Runs are
    immutable, so "active" is controller state (a run id per level), not a
    flag on the run.
    """

    def __init__(
        self,
        config: LevelConfig,
        builder: RunBuilder,
        hierarchy: StorageHierarchy,
        allocator: RunIdAllocator,
        run_lists: Dict[Zone, RunList],
        write_through: Optional[Callable[[int], bool]] = None,
        ancestor_protector: Optional[Callable[[str], bool]] = None,
        retention_provider: Optional[Callable[[], Tuple[Optional[int], Callable]]] = None,
        reclaimer: Optional[Callable[[str, Callable[[], None]], None]] = None,
        structure_lock: Optional[threading.Lock] = None,
    ) -> None:
        self.config = config
        self.builder = builder
        self.hierarchy = hierarchy
        self.allocator = allocator
        self.run_lists = run_lists
        # write_through(level) -> should a new persisted run at `level` also
        # be written into the SSD cache?  Supplied by the cache manager.
        self._write_through = write_through or (lambda _: True)
        # ancestor_protector(run_id) -> True if some live run still lists
        # run_id as an ancestor (so its shared-storage copy must survive).
        self._ancestor_protector = ancestor_protector or (lambda _: False)
        # retention_provider() -> (the MVCC retention horizon, dead_keys(
        # horizon): see merge_blocks); by default no horizon.
        self._retention_provider = retention_provider or (lambda: (None, lambda _h: ()))
        # reclaimer(run_id, free) routes physical frees of unlinked runs
        # through the run lifecycle (which defers them while a query's
        # pinned version holds the run); the default frees immediately.
        self._reclaim = reclaimer or (lambda _run_id, free: free())
        self._active: Dict[int, Optional[str]] = {}
        self._lock = threading.Lock()
        # Maintenance *structure* mutex, shared with the evolve controller
        # of the same index: a merge's victim selection, input streaming and
        # span splice must not interleave with an evolve's garbage
        # collection of the same list (the evolve could unlink a victim
        # mid-merge, breaking the contiguous span -- or delete blocks the
        # merge is still streaming).  Queries never take this lock.
        self._structure_lock = structure_lock or threading.Lock()

    # -- policy inspection --------------------------------------------------------

    def active_run_id(self, level: int) -> Optional[str]:
        with self._lock:
            return self._active.get(level)

    def runs_at_level(self, zone: Zone, level: int) -> List[IndexRun]:
        return [r for r in self.run_lists[zone].snapshot() if r.level == level]

    def inactive_runs_at_level(self, zone: Zone, level: int) -> List[IndexRun]:
        active = self.active_run_id(level)
        return [r for r in self.runs_at_level(zone, level) if r.run_id != active]

    def level_needing_merge(self, zone: Zone) -> Optional[int]:
        """Lowest level of ``zone`` with K inactive runs, excluding the
        zone's last level (there is nowhere within the zone to merge into)."""
        levels = self.config.levels_of(zone)
        for level in levels[:-1]:
            if len(self.inactive_runs_at_level(zone, level)) >= self.config.max_runs_per_level:
                return level
        return None

    # -- execution -------------------------------------------------------------------

    def merge_step(self, zone: Zone) -> Optional[MergeResult]:
        """Perform one merge in ``zone`` if the policy calls for one.

        Policy check and execution run under the structure mutex as one
        step: a concurrent evolve may garbage-collect the level's runs
        between an unlocked check and the merge, which is how the daemons
        used to race (victim span no longer contiguous).
        """
        with self._structure_lock:
            level = self.level_needing_merge(zone)
            if level is None:
                return None
            return self._merge_level_locked(zone, level)

    def merge_until_stable(self, zone: Zone) -> List[MergeResult]:
        """Run merge steps until the policy is satisfied, at most
        :data:`MAX_MERGES_PER_ZONE` of them."""
        results: List[MergeResult] = []
        for _ in range(MAX_MERGES_PER_ZONE):
            result = self.merge_step(zone)
            if result is None:
                break
            results.append(result)
        return results

    def _merge_level_locked(self, zone: Zone, level: int) -> MergeResult:
        config = self.config
        target_level = level + 1
        if target_level > config.last_level_of(zone):
            raise ValueError(
                f"level {level} is the last level of zone {zone.name}; "
                "nothing to merge into"
            )
        run_list = self.run_lists[zone]

        inactive = self.inactive_runs_at_level(zone, level)
        if not inactive:
            raise ValueError(f"no inactive runs at level {level} to merge")
        # List order is newest-first; take the K *oldest* (tail of the span).
        take = min(config.max_runs_per_level, len(inactive))
        victims = inactive[-take:]

        target_active_id = self.active_run_id(target_level)
        target_active: Optional[IndexRun] = None
        if target_active_id is not None:
            for run in self.runs_at_level(zone, target_level):
                if run.run_id == target_active_id:
                    target_active = run
                    break

        # Inputs newest-first: the level-L victims, then the target active.
        inputs: List[IndexRun] = list(victims)
        if target_active is not None:
            inputs.append(target_active)

        # Zero-decode merge: entry blobs move from the input blocks into the
        # new run verbatim; the output synopsis is the union of the inputs'
        # (sound: merged entries are a subset, see Synopsis.union).
        retention_ts, dead_keys = self._retention_provider()
        merged = merge_blocks(inputs, retention_ts, dead_keys)
        # While every version is above the horizon no filter runs, so the
        # output holds every input version (dedup drops only identical
        # copies) and its beginTS bounds are the inputs'; else it scans.
        headers = [r.header for r in inputs if r.entry_count]
        oldest = min([h.min_begin_ts for h in headers], default=None)
        bounds = None
        if oldest is not None and (retention_ts is None or retention_ts < oldest):
            bounds = (oldest, max([h.max_begin_ts for h in headers]))
        new_run_id = self.allocator.allocate(zone)
        persisted = config.is_persisted(target_level)
        ancestors = self._ancestors_for(inputs, persisted)
        new_run = self.builder.build_from_columns(
            run_id=new_run_id,
            batches=merged,
            synopsis=Synopsis.union([r.header.synopsis for r in inputs]),
            zone=zone,
            level=target_level,
            min_groomed_id=min(r.min_groomed_id for r in inputs),
            max_groomed_id=max(r.max_groomed_id for r in inputs),
            persisted=persisted,
            write_through_ssd=self._write_through(target_level),
            ancestor_run_ids=ancestors,
            begin_ts_bounds=bounds,
        )

        # Splice: the victims and the old target-active form one contiguous
        # span (victims are the oldest at L, the target active is the newest
        # at L+1, and the list is globally recency-ordered).
        crash_point("merge.pre_splice")
        span = [r.run_id for r in inputs]
        run_list.replace(span, new_run)
        crash_point("merge.post_splice")

        deleted = self._garbage_collect_inputs(inputs, new_run)

        # Active-run bookkeeping: the merged run is the new active of the
        # target level, and is immediately marked inactive if full.
        reference = max(r.entry_count for r in victims)
        full = new_run.entry_count >= config.size_ratio * max(reference, 1)
        with self._lock:
            self._active[target_level] = None if full else new_run.run_id

        return MergeResult(
            zone=zone,
            source_level=level,
            target_level=target_level,
            input_run_ids=tuple(r.run_id for r in inputs),
            output_run_id=new_run.run_id,
            output_entries=new_run.entry_count,
            output_marked_inactive=full,
            deleted_run_ids=tuple(deleted),
        )

    # -- non-persisted-level bookkeeping ---------------------------------------------

    def _ancestors_for(
        self, inputs: Sequence[IndexRun], output_persisted: bool
    ) -> Tuple[str, ...]:
        """Ancestor set for the merged run (section 6.1).

        A non-persisted output must remember every *persisted* run whose
        data it now carries (directly, or transitively through non-persisted
        inputs), because those shared-storage copies are the only durable
        form of that data until the output's descendants persist again.
        """
        if output_persisted:
            return ()
        ancestors: Set[str] = set()
        for run in inputs:
            if run.header.persisted:
                ancestors.add(run.run_id)
            else:
                ancestors.update(run.header.ancestor_run_ids)
        return tuple(sorted(ancestors))

    def _garbage_collect_inputs(
        self, inputs: Sequence[IndexRun], new_run: IndexRun
    ) -> List[str]:
        """Schedule physical deletion of what a merge made obsolete.

        Every free goes through the reclaimer: the inputs were atomically
        spliced out of the run list (no new query can reach them), but a
        query pinned on an older snapshot may still be streaming their
        blocks -- the lifecycle parks these frees until no pinned version
        covers the run.  The returned ids are the runs scheduled for deletion.
        """
        deleted: List[str] = []
        output_persisted = new_run.header.persisted
        for run in inputs:
            if run.header.persisted:
                if output_persisted:
                    # Normal LSM GC: data now lives in the durable new run.
                    self._reclaim(
                        run.run_id, delete_run_action(self.hierarchy, run)
                    )
                    deleted.append(run.run_id)
                else:
                    # Ancestor retention: keep the shared copy, free cache.
                    self._reclaim(
                        run.run_id, drop_cache_action(self.hierarchy, run)
                    )
            else:
                # Non-persisted input: local blocks are garbage now ...
                self._reclaim(
                    run.run_id, delete_run_action(self.hierarchy, run)
                )
                deleted.append(run.run_id)
                if output_persisted:
                    # ... and its recorded ancestors are finally safe to drop
                    # (unless some other live run still needs them).
                    for ancestor_id in run.header.ancestor_run_ids:
                        if not self._ancestor_protector(ancestor_id):
                            self._reclaim(
                                ancestor_id,
                                delete_namespace_action(
                                    self.hierarchy, ancestor_id
                                ),
                            )
                            deleted.append(ancestor_id)
        return deleted

    # -- recovery support -----------------------------------------------------------

    def reset_active_tracking(self) -> None:
        """Forget active-run state (after recovery all runs are inactive)."""
        with self._lock:
            self._active.clear()


__all__ = [
    "MergeController",
    "MergeResult",
    "merge_blocks",
    "merge_entry_blob_streams",
]
