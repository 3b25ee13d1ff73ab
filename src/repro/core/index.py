"""The :class:`UmziIndex` facade -- one index instance per table shard.

Ties together the run lists, merge and evolve controllers, cache manager,
metadata journal and query executor, and implements the candidate-run
collection whose ordering makes lock-free queries correct against
concurrent evolve operations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.builder import DEFAULT_DATA_BLOCK_BYTES, RunBuilder
from repro.core.cache import CacheManager
from repro.core.definition import IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.epoch import RunLifecycle, RunListVersion
from repro.core.evolve import EvolveController, EvolveResult, Watermark
from repro.core.ids import RunIdAllocator, parse_run_seq
from repro.core.journal import MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.merge import MergeController, MergeResult
from repro.core.query import MAX_QUERY_TS, QueryError, QueryExecutor
from repro.core.recovery import RecoveredState, recover_index_state
from repro.core.run import IndexRun, Synopsis
from repro.core.runlist import RunList
from repro.core.stats import IndexStats, LevelStats
from repro.core.encoding import KeyValue
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


class SnapshotPin:
    """A pinned run-list version plus an executor that queries it.

    The pin keeps every run of the version alive (cache eviction skips
    pinned runs, physical frees defer) until :meth:`release` -- called
    explicitly by holders whose lifetime is not lexical, or on leaving a
    ``with`` block; extra releases are no-ops.
    """

    def __init__(self, pin, executor: QueryExecutor) -> None:
        self._pin = pin
        self.executor = executor

    @property
    def runs(self):
        return self._pin.runs

    def release(self) -> None:
        self._pin.release()

    def __enter__(self) -> "SnapshotPin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class UmziConfig:
    """Tunables of one index instance."""

    name: str = "umzi"
    levels: LevelConfig = field(default_factory=LevelConfig)
    data_block_bytes: int = DEFAULT_DATA_BLOCK_BYTES
    use_synopsis: bool = True
    use_offset_array: bool = True
    # Extension beyond the paper: per-key (instead of batch-granularity)
    # synopsis pruning for batched lookups.  See QueryExecutor.
    per_key_batch_pruning: bool = False
    # Extension beyond the paper: per-run Bloom filters for point-lookup
    # run pruning (None = off; otherwise the false-positive rate).
    bloom_fpr: Optional[float] = None
    release_purged_blocks_after_query: bool = True


class UmziIndex:
    """A multi-version, multi-zone LSM index over one table shard."""

    def __init__(
        self,
        definition: IndexDefinition,
        hierarchy: Optional[StorageHierarchy] = None,
        config: Optional[UmziConfig] = None,
    ) -> None:
        self.definition = definition
        self.config = config if config is not None else UmziConfig()
        # An externally supplied hierarchy may serve several indexes (one
        # per shard).
        self.hierarchy = hierarchy if hierarchy is not None else StorageHierarchy()

        self._run_prefix = f"{self.config.name}-run"
        self.allocator = RunIdAllocator(prefix=self._run_prefix)
        # Version-set run lifecycle: queries pin immutable run-list
        # versions; maintenance retires unlinked runs through it so frees
        # defer until no live version holds them (see repro.core.epoch).
        # The collector first runs at the first pin or retire, after the
        # run lists and the watermark below exist.
        self.lifecycle = RunLifecycle(
            self.hierarchy.stats.epochs, self._collect_version
        )
        self.run_lists: Dict[Zone, RunList] = {
            Zone.GROOMED: RunList(
                f"{self.config.name}-groomed",
                on_publish=self.lifecycle.note_publish,
            ),
            Zone.POST_GROOMED: RunList(
                f"{self.config.name}-post-groomed",
                on_publish=self.lifecycle.note_publish,
            ),
        }
        self.watermark = Watermark()
        self.journal = MetadataJournal(
            self.hierarchy, namespace=f"{self.config.name}-meta"
        )
        self.builder = RunBuilder(
            definition, self.hierarchy, self.config.data_block_bytes,
            bloom_fpr=self.config.bloom_fpr,
        )
        self.cache = CacheManager(
            self.config.levels,
            self.hierarchy,
            self.run_lists,
            pinned_among=self.lifecycle.pinned_among,
        )
        self._retention_ts: Optional[int] = None
        # One structure mutex serializes evolve vs merge on this index's
        # run lists (maintenance-only; queries stay lock-free).
        self._maintenance_mutex = threading.Lock()
        self.merger = MergeController(
            self.config.levels,
            self.builder,
            self.hierarchy,
            self.allocator,
            self.run_lists,
            write_through=self.cache.write_through,
            ancestor_protector=self._is_live_ancestor,
            retention_provider=lambda: self._retention_ts,
            reclaimer=self.lifecycle.retire,
            structure_lock=self._maintenance_mutex,
        )
        self.evolver = EvolveController(
            self.config.levels,
            self.builder,
            self.hierarchy,
            self.allocator,
            self.run_lists,
            self.watermark,
            journal=self.journal,
            write_through=self.cache.write_through,
            ancestor_protector=self._is_live_ancestor,
            reclaimer=self.lifecycle.retire,
            structure_lock=self._maintenance_mutex,
        )
        self.executor = QueryExecutor(
            definition,
            collect_runs=self.visible_runs,
            use_synopsis=self.config.use_synopsis,
            use_offset_array=self.config.use_offset_array,
            per_key_batch_pruning=self.config.per_key_batch_pruning,
            on_query_done=(
                self.cache.release_after_query
                if self.config.release_purged_blocks_after_query
                else None
            ),
            lifecycle=self.lifecycle,
        )
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------------------
    # entry construction
    # ------------------------------------------------------------------------------

    def make_entry(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
        include_values: Sequence[KeyValue],
        begin_ts: int,
        rid: RID,
    ) -> IndexEntry:
        """Validate values against the definition and build one entry."""
        return IndexEntry.create(
            self.definition,
            tuple(equality_values),
            tuple(sort_values),
            tuple(include_values),
            begin_ts,
            rid,
        )

    # ------------------------------------------------------------------------------
    # maintenance operations (paper section 5)
    # ------------------------------------------------------------------------------

    def add_groomed_run(
        self,
        entries: Iterable[IndexEntry],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> IndexRun:
        """Index build after a groom operation (section 5.2).

        Builds a level-0 run (always persisted) over the newly groomed data
        and publishes it at the head of the groomed run list.
        """
        return self._publish_groomed(
            self.builder.build, min_groomed_id, max_groomed_id, entries=entries
        )

    def add_groomed_blobs(
        self,
        blob_pairs: Iterable[Tuple[bytes, bytes]],
        synopsis: Synopsis,
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> IndexRun:
        """:meth:`add_groomed_run` over sorted ``(sort_key, blob)`` pairs.

        The groomer's form: its column kernel produces the serialized
        entries directly, so no :class:`IndexEntry` is built or decoded.
        """
        return self._publish_groomed(
            self.builder.build_from_blobs, min_groomed_id, max_groomed_id,
            blob_pairs=blob_pairs, synopsis=synopsis,
        )

    def _publish_groomed(
        self, build, min_groomed_id: int, max_groomed_id: int, **source
    ) -> IndexRun:
        with self._build_lock:
            run = build(
                run_id=self.allocator.allocate(Zone.GROOMED),
                zone=Zone.GROOMED,
                level=0,
                min_groomed_id=min_groomed_id,
                max_groomed_id=max_groomed_id,
                persisted=True,
                write_through_ssd=self.cache.write_through(0),
                **source,
            )
            self.run_lists[Zone.GROOMED].push_front(run)
            return run

    def evolve_streaming(
        self,
        psn: int,
        new_rid_of,
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Index evolve after a post-groom operation (section 5.4): stream
        the covered groomed runs' blobs, splicing each entry's post-groomed
        RID ``new_rid_of(begin_ts)`` (see
        :meth:`EvolveController.step1_build_run`)."""
        return self.evolver.evolve_streaming(
            psn, new_rid_of, min_groomed_id, max_groomed_id
        )

    @property
    def indexed_psn(self) -> int:
        return self.evolver.indexed_psn

    def set_retention_ts(self, retention_ts: Optional[int]) -> None:
        """Set the MVCC retention horizon for future merges.

        Merges drop versions unreachable by any snapshot >= ``retention_ts``
        (each key keeps its newest version at or below the horizon plus all
        newer ones).  ``None`` keeps every version forever.  Time travel
        below the horizon becomes undefined -- callers own that contract.
        """
        if retention_ts is not None and self._retention_ts is not None:
            if retention_ts < self._retention_ts:
                raise ValueError(
                    "retention horizon may only move forward "
                    f"({self._retention_ts} -> {retention_ts})"
                )
        self._retention_ts = retention_ts

    @property
    def retention_ts(self) -> Optional[int]:
        return self._retention_ts

    def needs_merge(self) -> bool:
        return any(
            self.merger.needs_merge(zone)
            for zone in (Zone.GROOMED, Zone.POST_GROOMED)
        )

    def merge_step(self) -> Optional[MergeResult]:
        """Perform at most one pending merge (deterministic mode)."""
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            result = self.merger.merge_step(zone)
            if result is not None:
                return result
        return None

    def run_maintenance(self, max_steps: int = 64) -> List[MergeResult]:
        """Merge until stable in both zones, then a cache pass."""
        results: List[MergeResult] = []
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            results.extend(self.merger.merge_until_stable(zone, max_steps))
        self.cache.maintain()
        return results

    # ------------------------------------------------------------------------------
    # queries (paper section 7)
    # ------------------------------------------------------------------------------

    def lookup(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: int = MAX_QUERY_TS,
    ) -> Optional[IndexEntry]:
        return self.executor.lookup(equality_values, sort_values, query_ts)

    def scan(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: int = MAX_QUERY_TS,
    ) -> List[IndexEntry]:
        return self.executor.scan(
            equality_values, sort_lower, sort_upper, query_ts
        )

    def batch_lookup(
        self, keys: Sequence[Sequence[KeyValue]], query_ts: int
    ) -> List[Optional[IndexEntry]]:
        """Batched point lookups at one snapshot (section 7.2), answers in
        input order.  Each key is one tuple of the key columns' values
        (equality, then sort); per-key snapshots are
        :meth:`QueryExecutor.batch_lookup`'s."""
        if not keys:
            return []
        try:
            columns = list(zip(*keys, strict=True))
        except ValueError:
            raise QueryError("the keys of a batch differ in width") from None
        return self.executor.batch_lookup_columns(columns, query_ts)

    # ------------------------------------------------------------------------------
    # candidate-run collection
    # ------------------------------------------------------------------------------

    def _collect_version(self) -> RunListVersion:
        """Snapshot the index for one query as an immutable version.

        Publication-order argument for correctness against a concurrent
        evolve (whose sub-steps are: 1. add post-groomed run, 2. advance
        watermark, 3. remove groomed runs):

        * the groomed list is snapshotted **first**: any groomed run removed
          before this point had its post-groomed coverage published at
          sub-step 1 of the same (earlier) evolve, which therefore precedes
          our later post-groomed snapshot;
        * the watermark is read **before** the post-groomed snapshot: a
          watermark value W was published at sub-step 2, after the run
          covering up to W was added at sub-step 1, so the post-groomed
          snapshot (taken after the watermark read) must contain that
          coverage;
        * groomed runs at or below the watermark are dropped ("automatically
          ignored by queries", section 5.4); remaining overlap between the
          zones yields physical duplicates, which reconciliation removes.

        Each per-list snapshot is one atomic tuple read (see
        :meth:`RunList.snapshot`); the composed version is immutable, and
        when collected through :meth:`RunLifecycle.pin` the whole
        collect-and-register step is atomic against run retirement.
        """
        groomed = self.run_lists[Zone.GROOMED].snapshot()
        watermark_value = self.watermark.value
        post_groomed = self.run_lists[Zone.POST_GROOMED].snapshot()
        visible_groomed = tuple(
            run for run in groomed if run.max_groomed_id > watermark_value
        )
        return RunListVersion(
            version_id=self.lifecycle.version_seq,
            groomed=visible_groomed,
            post_groomed=tuple(post_groomed),
            watermark=watermark_value,
        )

    def visible_runs(self) -> List[IndexRun]:
        """The current version's candidate runs, newest first.

        The access-path planner's statistics layer folds these runs'
        headers into an :class:`~repro.planner.stats.AccessPathSynopsis`
        without decoding an entry; freshness is keyed on
        ``lifecycle.version_seq``, which every publication increments.
        """
        return self._collect_version().candidates()

    def _fixed_executor(
        self, collect_runs: Callable[[], Sequence[IndexRun]]
    ) -> QueryExecutor:
        """An executor over runs its caller has pinned: no lifecycle, no
        release hook, the query flags of :attr:`config`."""
        return QueryExecutor(
            self.definition,
            collect_runs=collect_runs,
            use_synopsis=self.config.use_synopsis,
            use_offset_array=self.config.use_offset_array,
            per_key_batch_pruning=self.config.per_key_batch_pruning,
        )

    def pin_snapshot(self) -> "SnapshotPin":
        """Pin the current :class:`RunListVersion` for repeatable reads.

        Returns a :class:`SnapshotPin` whose executor answers every query
        from the pinned version, no matter how many evolves or merges
        commit in the meantime; the pin keeps the version's runs alive
        until :meth:`SnapshotPin.release`.  Use it as a context manager
        for several queries over one consistent snapshot, or hold it
        explicitly when the lifetime is not lexical (the cluster's
        degraded-read mode keeps a pin open for as long as a storage
        brownout lasts).  Individual queries already pin per query.
        """
        pin = self.lifecycle.pin()
        return SnapshotPin(pin, self._fixed_executor(lambda: pin.runs))

    def post_groomed_batch_lookup(
        self, key_columns: Sequence[Sequence[KeyValue]], query_ts: int
    ) -> List[Optional[IndexEntry]]:
        """Batched point lookups over the post-groomed portion of the index
        (keys column-major, see :meth:`QueryExecutor.batch_lookup_columns`).

        Used by the post-groomer (paper section 2.1: the post-groom
        operation "utilizes the post-groomed portion of the indexes to
        collect the RIDs of the already post-groomed records that will be
        replaced"), one sorted batch per post-groom (section 7.2).  It
        reuses the query machinery, but the caller is maintenance, so the
        sweep runs under ``ReadIntent.MAINTENANCE``: blocks it pulls from
        purged post-groomed levels are not admitted into the SSD cache.
        The sweep races concurrent merges of the post-groomed zone like
        any query does, so it pins the current version for its duration
        and reads that version's post-groomed runs.
        """
        with self.lifecycle.pin() as pin:
            executor = self._fixed_executor(lambda: pin.version.post_groomed)
            with self.hierarchy.reading_as(ReadIntent.MAINTENANCE):
                return executor.batch_lookup_columns(key_columns, query_ts)

    def all_runs(self) -> List[IndexRun]:
        """Every run in both lists (no watermark filtering); newest first."""
        return (
            self.run_lists[Zone.GROOMED].snapshot()
            + self.run_lists[Zone.POST_GROOMED].snapshot()
        )

    # ------------------------------------------------------------------------------
    # recovery (paper section 5.5)
    # ------------------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Rebuild run lists and metadata from shared storage.

        Call after :meth:`StorageHierarchy.crash_local_tiers` (or on a fresh
        process pointed at existing shared storage).
        """
        # Resume run-id allocation above every sequence number present in
        # shared storage: a fresh process starts its allocator at 0, and
        # the first post-recovery build would otherwise collide with a
        # surviving namespace (shared storage is append-only).  Scanned
        # before recover_index_state so ids dropped *by* recovery
        # (incomplete/corrupt/superseded) are never handed out again
        # either -- their delete may race a later write.
        max_seq = max(
            (
                parse_run_seq(self._run_prefix, namespace)
                for namespace in self.hierarchy.shared.namespaces()
            ),
            default=-1,
        )
        self.allocator.ensure_at_least(max_seq + 1)
        state = recover_index_state(
            self.definition, self.hierarchy, self._run_prefix, self.journal
        )
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            runs = state.runs_by_zone[zone]
            # Newest first == descending end groomed id.
            runs.sort(key=lambda run: run.max_groomed_id, reverse=True)
            self.run_lists[zone].rebuild(runs)
        if state.checkpoint is not None:
            self.evolver.restore(state.checkpoint)
        self.merger.reset_active_tracking()
        return state

    # ------------------------------------------------------------------------------
    # internals / introspection
    # ------------------------------------------------------------------------------

    def _is_live_ancestor(self, run_id: str) -> bool:
        """Is ``run_id`` still named as an ancestor by any live run?"""
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            for run in self.run_lists[zone].iter_runs():
                if run_id in run.header.ancestor_run_ids:
                    return True
        return False

    def stats(self) -> IndexStats:
        levels: List[LevelStats] = []
        total_entries = 0
        for level in range(self.config.levels.total_levels):
            zone = self.config.levels.zone_of(level)
            runs = [
                run
                for run in self.run_lists[zone].iter_runs()
                if run.level == level
            ]
            entry_count = sum(run.entry_count for run in runs)
            total_entries += entry_count
            levels.append(
                LevelStats(
                    level=level,
                    zone=zone,
                    run_count=len(runs),
                    entry_count=entry_count,
                    size_bytes=sum(run.size_bytes for run in runs),
                    persisted=self.config.levels.is_persisted(level),
                )
            )
        return IndexStats(
            definition=self.definition.describe(),
            levels=tuple(levels),
            groomed_run_count=len(self.run_lists[Zone.GROOMED]),
            post_groomed_run_count=len(self.run_lists[Zone.POST_GROOMED]),
            total_entries=total_entries,
            max_covered_groomed_id=self.watermark.value,
            indexed_psn=self.indexed_psn,
            current_cached_level=self.cache.current_cached_level,
            cached_run_fraction=self.cache.cached_fraction(),
        )


__all__ = ["SnapshotPin", "UmziConfig", "UmziIndex"]
