"""SSD cache management (paper section 6.2).

Umzi "aggressively caches index runs using local memory and SSD, even
without ongoing queries", assuming recent data is accessed more often.  The
cache manager tracks the **current cached level**: runs at levels at or
below it are cached on SSD; runs above it are *purged* -- their data blocks
are dropped from the local tiers "while only [keeping] the header block for
queries to locate data blocks".

* When the SSD nears capacity, runs are purged starting from the current
  cached level (old data first), and the level is decremented once all its
  runs are purged.
* When the SSD has room, runs are loaded back in the reverse direction and
  the level is incremented once a level is fully cached.
* New runs created by merge or evolve are written through to the SSD cache
  iff their level is below (i.e. more recent than) the current cached level.
* A query that had to touch a purged run releases those transient blocks
  when it finishes -- exactly the blocks fetched through the run handle
  (``IndexRun.fetched_blocks``), not a sweep over every block of the run.

``set_cache_level`` provides the manual override the paper uses for the
purge experiment (Figure 14).

**Scan resistance (maintenance-aware extension).**  Background maintenance
-- streaming evolve, merges, the post-groom sweep, recovery validation --
reads entire purged levels exactly once.  Those reads carry
``ReadIntent.MAINTENANCE`` through the hierarchy, which refuses to promote
them into the SSD, so a purged level stays purged across an evolve
instead of being churned in and out of the cache.  The cache manager's
entry points are never reached by maintenance: :meth:`CacheManager.load_run`
is the policy's own admission, and :meth:`CacheManager.release_after_query`
the query exit's.
"""

from __future__ import annotations

import threading
from typing import Callable, Collection, Dict, Iterable, List, Optional, Set

from repro.core.entry import Zone
from repro.core.levels import LevelConfig
from repro.core.run import IndexRun
from repro.core.runlist import RunList
from repro.storage.block import BlockId
from repro.storage.hierarchy import StorageHierarchy

_tuple_new = tuple.__new__

# SSD utilization at or above which a maintenance pass purges runs (until
# it drops below again), and under which it loads purged runs back.
HIGH_WATERMARK = 0.85
LOW_WATERMARK = 0.60


class CacheManager:
    """Level-based purge/load policy over the storage hierarchy.

    The manager owns *which runs* live in the SSD cache (the paper's
    level-based purge/load policy); the hierarchy owns *how blocks get
    admitted* on the read path, by each read's intent.
    """

    def __init__(
        self,
        config: LevelConfig,
        hierarchy: StorageHierarchy,
        run_lists: Dict[Zone, RunList],
        pinned_among: Optional[Callable[[Collection[str]], Set[str]]] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.run_lists = run_lists
        # pinned_among(run_ids) -> those some live query snapshot is still
        # holding.  Supplied by the run lifecycle (a run counts as pinned
        # when any query-reffed RunListVersion contains it; the current
        # version's implicit reference does not count, or nothing could
        # ever be evicted).  Eviction paths (purge_run,
        # release_after_query) skip pinned runs so a block is never
        # dropped out from under an in-flight query.
        self._pinned_among = (
            pinned_among if pinned_among is not None else lambda _run_ids: ()
        )
        # Everything cached initially; levels above this are purged.
        self._current_cached_level = config.total_levels - 1
        self._manual = False
        self._lock = threading.Lock()

    # -- state inspection ---------------------------------------------------------

    @property
    def current_cached_level(self) -> int:
        return self._current_cached_level

    def write_through(self, level: int) -> bool:
        """Should a new run at ``level`` be written through to the SSD?"""
        return level <= self._current_cached_level

    def is_run_cached(self, run: IndexRun) -> bool:
        """All data blocks locally present?"""
        return all(
            self.hierarchy.is_cached(run.data_block_id(i))
            for i in range(run.header.num_data_blocks)
        )

    # -- run-granularity primitives --------------------------------------------------

    def purge_run(self, run: IndexRun) -> int:
        """Drop a run's data blocks from the local tiers; keep the header.

        Non-persisted runs cannot be purged (the local copy is the only
        copy); they return 0.  So do runs pinned by a live query snapshot
        -- runs reachable from any query-reffed version: evicting mid-read
        would stall the query on shared-storage refetches (and invalidate
        the decoded views it is iterating), so the purge pass simply
        revisits the run on a later cycle.
        """
        if not run.header.persisted:
            return 0
        if self._pinned_among((run.run_id,)):
            self.hierarchy.stats.epochs.eviction_pin_skips += 1
            return 0
        dropped = self.hierarchy.drop_from_cache(
            [run.data_block_id(i) for i in range(run.header.num_data_blocks)]
        )
        run.fetched_blocks.clear()
        run.drop_decode_cache()
        # Keep (or restore) the header block locally so queries can plan.
        header_id = run.header_block_id()
        if not self.hierarchy.is_cached(header_id):
            self.hierarchy.load_into_cache(header_id)
        return dropped

    def load_run(self, run: IndexRun) -> bool:
        """Fetch a run's data blocks from shared storage into the SSD: the
        policy's deliberate admission (:meth:`_load_pass`,
        :meth:`set_cache_level`).  ``False`` when they would not fit."""
        if not run.header.persisted:
            return True  # already local by definition
        total_needed = sum(
            meta.size_bytes
            for i, meta in enumerate(run.header.block_meta)
            if not self.hierarchy.is_cached(run.data_block_id(i))
        )
        if not self.hierarchy.ssd.would_fit(total_needed):
            return False
        for i in range(run.header.num_data_blocks):
            block_id = run.data_block_id(i)
            if not self.hierarchy.is_cached(block_id):
                self.hierarchy.load_into_cache(block_id)
                run.fetched_blocks.add(i)
        return True

    def release_after_query(
        self,
        touched_purged_runs: Iterable[IndexRun],
    ) -> None:
        """Drop transient blocks a query pulled in from purged runs.

        Only a run whose level is purged and whose handle fetched
        something (``IndexRun.fetched_blocks``) has a release decision to
        make.  The lifecycle is asked once which of those runs another
        query still pins (each one deferred, ``eviction_pin_skips``); the
        fetched blocks of the rest -- exactly those -- leave the local
        tiers in one :meth:`StorageHierarchy.drop_from_cache`.  Only a
        query executor's exit hook calls it: the post-groom sweep's
        executor has no hook, so a maintenance read never evicts blocks a
        concurrent query warmed.
        """
        releasing: Dict[str, IndexRun] = {}
        cached_level = self._current_cached_level
        for run in touched_purged_runs:
            if run.fetched_blocks and run.level > cached_level:
                releasing[run.run_id] = run
        if not releasing:
            return  # nothing transient to release: no decision made
        # Another query's pinned snapshot may still hold a run: dropping
        # its blocks (and decoded views) now would yank them out from
        # under that query's reads.  The next query to touch the
        # run releases them; until then a bounded SSD reclaims them
        # through the ordinary purge pass under pressure.
        pinned = self._pinned_among(releasing)
        doomed: List[BlockId] = []
        for run_id, run in releasing.items():
            if run_id in pinned:
                self.hierarchy.stats.epochs.eviction_pin_skips += 1
                continue
            # Only what the handle pulled in is resident at a purged level,
            # and an unfetched block's delete would charge nothing: no I/O
            # counter moves.  ``data_block_id`` and ``drop_decode_cache``, inline.
            fetched = run.fetched_blocks
            try:  # pop-then-drop stays safe against a concurrent exit
                while True:
                    doomed.append(_tuple_new(BlockId, (run_id, fetched.pop() + 1)))
            except KeyError:
                pass
            run._views.clear()
        self.hierarchy.drop_from_cache(doomed)

    def forget_sweep_views(self, runs: Iterable[IndexRun]) -> None:
        """Forget the views (and ``fetched_blocks`` entries) of purged ``runs``
        whose block no local tier holds: a post-groom sweep's reads admit none."""
        for run in [run for run in runs if run.level > self._current_cached_level]:
            for i in list(run._views):  # a copy: a query may memoize meanwhile
                if not self.hierarchy.is_cached(run.data_block_id(i)):
                    run._views.pop(i, None)
                    run.fetched_blocks.discard(i)

    # -- the dynamic policy --------------------------------------------------------------

    def maintain(self) -> None:
        """One maintenance pass: purge under pressure, load when spacious.

        No-op when the SSD is unbounded or a manual cache level is pinned
        (Figure 14 mode).
        """
        if self._manual or self.hierarchy.ssd.capacity_bytes is None:
            return
        with self._lock:
            if self.hierarchy.ssd.utilization() >= HIGH_WATERMARK:
                self._purge_pass()
            elif self.hierarchy.ssd.utilization() < LOW_WATERMARK:
                self._load_pass()

    def _runs_at_level(self, level: int) -> List[IndexRun]:
        zone = self.config.zone_of(level)
        return [
            run for run in self.run_lists[zone].snapshot() if run.level == level
        ]

    def _purge_pass(self) -> None:
        """Purge oldest-first until below the high watermark.

        Pinned runs are skipped (never evicted mid-read) without wedging
        the pass: the scan keeps descending to lower levels looking for
        evictable space, and ``_current_cached_level`` is only decremented
        when a level is genuinely fully purged -- no pinned holdouts.
        Empty runs (zero data blocks) are trivially purged and never count
        as holdouts.
        """
        level = self._current_cached_level
        while (
            self.hierarchy.ssd.utilization() >= HIGH_WATERMARK
            and level >= 0
        ):
            runs = self._runs_at_level(level)
            # Oldest runs first (tail of the newest-first list order).
            blocked = False
            for run in reversed(runs):
                if run.header.persisted and self.is_run_cached(run):
                    if self.purge_run(run) > 0:
                        if self.hierarchy.ssd.utilization() < HIGH_WATERMARK:
                            return
                    elif run.header.num_data_blocks > 0:
                        # A non-empty cached run that would not purge is a
                        # pinned holdout: this level is not fully purged.
                        blocked = True
            if level == 0:
                return  # never purge below level 0 entirely automatically
            if not blocked and level == self._current_cached_level:
                self._current_cached_level -= 1
            level -= 1

    def _load_pass(self) -> None:
        """Load recent-first in the reverse direction of purging."""
        while (
            self.hierarchy.ssd.utilization() < LOW_WATERMARK
            and self._current_cached_level < self.config.total_levels - 1
        ):
            next_level = self._current_cached_level + 1
            runs = self._runs_at_level(next_level)
            all_cached = True
            for run in runs:  # newest first
                if not self.is_run_cached(run):
                    if not self.load_run(run):
                        return  # out of space; stop loading
                    if self.hierarchy.ssd.utilization() >= LOW_WATERMARK:
                        all_cached = self.is_run_cached(run) and run is runs[-1]
                        break
            if all_cached or all(self.is_run_cached(r) for r in runs):
                self._current_cached_level = next_level
            else:
                return

    # -- manual control (Figure 14) ----------------------------------------------------------

    def set_cache_level(self, level: int) -> None:
        """Pin the cached/purged boundary: purge everything above ``level``,
        load everything at or below it, and disable the dynamic policy."""
        if not -1 <= level <= self.config.total_levels - 1:
            raise ValueError(
                f"cache level must be in [-1, {self.config.total_levels - 1}]"
            )
        with self._lock:
            self._manual = True
            self._current_cached_level = level
            for lvl in range(self.config.total_levels - 1, level, -1):
                for run in self._runs_at_level(lvl):
                    self.purge_run(run)
            for lvl in range(0, level + 1):
                for run in self._runs_at_level(lvl):
                    self.load_run(run)

    def cached_fraction(self) -> float:
        """Fraction of persisted runs whose data is fully cached."""
        runs = [
            run
            for zone in (Zone.GROOMED, Zone.POST_GROOMED)
            for run in self.run_lists[zone].snapshot()
            if run.header.persisted
        ]
        if not runs:
            return 1.0
        cached = sum(1 for run in runs if self.is_run_cached(run))
        return cached / len(runs)


__all__ = ["CacheManager"]
