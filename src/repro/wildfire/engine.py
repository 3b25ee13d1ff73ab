"""The shard facade: one table shard with the full Wildfire lifecycle.

Ties together the committed log, groomer, post-groomer, indexer daemon and
the Umzi index over one storage hierarchy, and exposes:

* ingestion (auto-commit upserts or explicit transactions);
* the lifecycle drivers -- deterministic (:meth:`WildfireShard.tick`,
  :meth:`run_cycles`) and threaded (:meth:`start_daemons`), matching the
  paper's cadence of "groomer runs every second, post-groomer every 20
  seconds" as a cycle ratio;
* snapshot-isolation reads: point lookups, range scans, batched lookups,
  and time travel via explicit query timestamps, each resolving RIDs to
  records through the block catalog.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encoding import KeyValue
from repro.core.entry import IndexEntry
from repro.core.index import UmziConfig, UmziIndex
from repro.core.maintenance import MaintenanceService
from repro.core.query import QueryError
from repro.planner import (
    AccessPlan,
    Query,
    SynopsisCatalog,
    plan_baseline,
    plan_smart,
)
from repro.planner.plan import Bounds, bind_values, tuple_getter
from repro.planner.smart import cannot_match
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.retry import TransientIOError
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.clock import HybridClock
from repro.wildfire.groomer import Groomer
from repro.wildfire.indexer import IndexerDaemon
from repro.wildfire.indexes import PRIMARY_INDEX_NAME, ShardIndexes
from repro.wildfire.postgroomer import PostGroomer
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.transaction import Transaction
from repro.wildfire.txlog import CommittedLog


# What a bound typed query carries to every shard: ``bind_values``' result.
Values = Tuple[Tuple[KeyValue, ...], Bounds]


def _within(rows: List, column: Sequence[KeyValue], low, high) -> List:
    """The ``rows`` whose value in the parallel ``column`` lies within
    ``[low, high]`` (``None``: open) -- one pass, no call per row."""
    if low is None:
        if high is None:
            return rows
        return [row for row, value in zip(rows, column) if value <= high]
    if high is None:
        return [row for row, value in zip(rows, column) if value >= low]
    return [row for row, value in zip(rows, column) if low <= value <= high]


@dataclass(frozen=True)
class ShardConfig:
    """Lifecycle cadence and component tunables for one shard.

    Most fields mirror a knob of the paper's deployment (groom/post-groom
    cadence, partition buckets); ``planner`` keeps the pre-planner
    ablation arm.
    """

    post_groom_every: int = 20  # groom cycles per post-groom (paper: 1s vs 20s)
    partition_buckets: int = 4
    umzi: UmziConfig = field(default_factory=UmziConfig)
    # Secondary indexes (name -> spec), maintained in lockstep with the
    # primary through every groom and evolve (paper section 10 future work).
    secondary_indexes: Optional[Dict[str, "IndexSpec"]] = None
    # Access-path planner for typed queries (ISSUE 9): "smart" (default)
    # costs every candidate path -- primary point/scan, secondary prefix
    # scan + RID fetch-back, index-only covering answers -- from run-header
    # statistics; "baseline" always runs the primary and always fetches
    # records (pre-planner behaviour, kept as the ablation arm of
    # benchmarks/bench_access_path.py).  The index wrapper methods plan
    # nothing and are unaffected.
    planner: str = "smart"


class WildfireShard:
    """A single table shard of the simulated Wildfire engine."""

    def __init__(
        self,
        schema: TableSchema,
        index_spec: IndexSpec,
        hierarchy: Optional[StorageHierarchy] = None,
        config: Optional[ShardConfig] = None,
    ) -> None:
        self.schema = schema
        self.index_spec = index_spec
        self.config = config if config is not None else ShardConfig()
        self.hierarchy = hierarchy if hierarchy is not None else StorageHierarchy()

        self.clock = HybridClock()
        self.committed_log = CommittedLog(
            self.hierarchy, namespace=f"{schema.name}-live-log"
        )
        self.catalog = BlockCatalog(schema, self.hierarchy)
        self.indexes = ShardIndexes(
            schema,
            index_spec,
            self.hierarchy,
            self.config.umzi,
            secondary_specs=self.config.secondary_indexes,
        )
        self.index = self.indexes.primary.index  # the primary Umzi index
        self.groomer = Groomer(
            schema, self.clock, self.committed_log, self.catalog, self.indexes
        )
        self.post_groomer = PostGroomer(
            schema,
            self.catalog,
            self.index,
            index_spec,
            partition_buckets=self.config.partition_buckets,
        )
        self.indexer = IndexerDaemon(
            schema,
            self.catalog,
            self.indexes,
            self.post_groomer,
        )
        self.maintenance = MaintenanceService(self.index.merger, self.index.cache)
        self._secondary_maintenance = [
            MaintenanceService(si.index.merger, si.index.cache)
            for si in self.indexes.secondaries.values()
        ]
        self._extract = index_spec.extractor(schema)
        # Access-path planning (ISSUE 9): the per-index statistics cache
        # (version-seq refreshed, zero-decode) and the getter the
        # fetch-back path uses to turn a pk tuple recovered from a
        # secondary entry into the primary index's key (equality values,
        # then sort values).
        if self.config.planner not in ("baseline", "smart"):
            raise ValueError(
                f"ShardConfig.planner must be 'baseline' or 'smart'; "
                f"got {self.config.planner!r}"
            )
        self.synopses = SynopsisCatalog(self.indexes)
        self._primary_key_of_pk = tuple_getter([
            schema.primary_key.index(column)
            for column in index_spec.equality_columns + index_spec.sort_columns
        ])
        self._daemon_threads: List[threading.Thread] = []
        self._daemons_stop = threading.Event()
        self._cycle = 0
        # Maintenance backpressure (ISSUE 7): when a DaemonScheduler is
        # attached, every maintenance cycle -- deterministic tick or
        # threaded daemon -- first asks its gate; throttled cycles do no
        # maintenance work at all.
        self._scheduler = None
        # Degraded-read mode (ISSUE 7): a long-lived SnapshotPin over the
        # primary index, opened while the shared tier's breaker is open so
        # queries answer from local tiers + a pinned versionset snapshot.
        self._degraded_pin = None
        self._degraded_lock = threading.Lock()

    # ------------------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------------------

    def begin(self, replica_id: int = 0) -> Transaction:
        return Transaction(self.schema, self.clock, self.committed_log, replica_id)

    def ingest(self, rows: Sequence[Sequence[KeyValue]], replica_id: int = 0) -> int:
        """Auto-commit upsert of a batch of rows; returns the commit seq."""
        transaction = self.begin(replica_id)
        transaction.upsert_many(rows)
        commit_seq = transaction.commit()
        return commit_seq if commit_seq is not None else 0

    # ------------------------------------------------------------------------------
    # lifecycle -- deterministic driver
    # ------------------------------------------------------------------------------

    def attach_scheduler(self, scheduler) -> None:
        """Install a maintenance-backpressure gate (or ``None`` to clear).

        ``scheduler`` is any object with an ``allow_maintenance() -> bool``
        method (see :class:`repro.qos.scheduler.DaemonScheduler`); it is
        consulted once per maintenance cycle in both the deterministic
        :meth:`tick` driver and the threaded :meth:`start_daemons` loops.
        """
        self._scheduler = scheduler
        gate = scheduler.allow_maintenance if scheduler is not None else None
        self.maintenance.set_gate(gate)
        for service in self._secondary_maintenance:
            service.set_gate(gate)
        self.indexer.set_gate(gate)

    def tick(self) -> Dict[str, object]:
        """One simulation cycle: groom, maybe post-groom, evolve, merge.

        With a scheduler attached (:meth:`attach_scheduler`), a throttled
        cycle skips *all* maintenance work -- groom included -- and
        reports ``{"throttled": True}``; ingestion keeps accumulating in
        the committed log until the scheduler releases.
        """
        self._cycle += 1
        report: Dict[str, object] = {"cycle": self._cycle}
        if self._scheduler is not None and not self._scheduler.allow_maintenance():
            report["throttled"] = True
            return report
        try:
            groom = self.groomer.groom()
            report["groom"] = groom
            if self._cycle % self.config.post_groom_every == 0:
                report["post_groom"] = self.post_groomer.post_groom()
            evolved = self.indexer.drain()
            if evolved:
                report["evolved"] = evolved
            merges = self.maintenance.step()
            for service in self._secondary_maintenance:
                service.step()
            if merges:
                report["merges"] = merges
        except TransientIOError as exc:
            # Under qos supervision an aborted maintenance cycle must not
            # take the serving loop down: the groomer has requeued its
            # rows, runs are immutable (a half-written one is simply
            # never published), and the scheduler will throttle the next
            # cycles until the storm passes.  Without a scheduler the
            # legacy contract holds: the error propagates.
            if self._scheduler is None:
                raise
            report["maintenance_error"] = type(exc).__name__
        return report

    def run_cycles(self, cycles: int, ingest_fn=None) -> List[Dict[str, object]]:
        """Drive ``cycles`` ticks; ``ingest_fn(cycle)`` feeds rows first."""
        reports = []
        for _ in range(cycles):
            if ingest_fn is not None:
                rows = ingest_fn(self._cycle + 1)
                if rows:
                    self.ingest(rows)
            reports.append(self.tick())
        return reports

    @property
    def cycle(self) -> int:
        return self._cycle

    # ------------------------------------------------------------------------------
    # lifecycle -- threaded daemons (end-to-end experiments)
    # ------------------------------------------------------------------------------

    def start_daemons(self, groom_interval_s: float = 0.05) -> None:
        """Run groomer/post-groomer/indexer/maintenance as real threads.

        ``groom_interval_s`` is the scaled-down "every second"; the
        post-groomer fires every ``config.post_groom_every`` grooms, as in
        the paper's 1s/20s cadence.

        **Query safety.**  It is safe to issue point/range/batch queries
        from any number of threads while the daemons run: each query pins
        an immutable run-list version -- a single Ref/Unref -- and runs
        retired by concurrent evolves/merges are only physically reclaimed
        once no live version contains them.
        """
        if self._daemon_threads:
            raise RuntimeError("daemons already running")
        self._daemons_stop.clear()

        def groom_loop() -> None:
            grooms = 0
            while not self._daemons_stop.is_set():
                if (
                    self._scheduler is not None
                    and not self._scheduler.allow_maintenance()
                ):
                    time.sleep(groom_interval_s)
                    continue
                try:
                    result = self.groomer.groom()
                except TransientIOError:
                    # Rows were requeued; keep the daemon alive and let
                    # the scheduler throttle until the storm passes.
                    if self._scheduler is None:
                        raise
                    time.sleep(groom_interval_s)
                    continue
                if result is not None:
                    grooms += 1
                    if grooms % self.config.post_groom_every == 0:
                        self.post_groomer.post_groom()
                time.sleep(groom_interval_s)

        thread = threading.Thread(target=groom_loop, name="wildfire-groomer", daemon=True)
        thread.start()
        self._daemon_threads.append(thread)
        self.indexer.start()
        self.maintenance.start()
        for service in self._secondary_maintenance:
            service.start()

    @property
    def daemons_running(self) -> bool:
        """True between :meth:`start_daemons` and :meth:`stop_daemons`."""
        return bool(self._daemon_threads)

    def stop_daemons(self) -> None:
        self._daemons_stop.set()
        for thread in self._daemon_threads:
            thread.join(timeout=5.0)
        self._daemon_threads = []
        self.indexer.stop()
        if self.maintenance.running:
            self.maintenance.stop()
        for service in self._secondary_maintenance:
            if service.running:
                service.stop()

    # ------------------------------------------------------------------------------
    # lifecycle -- quiesce (shard split support, ISSUE 8)
    # ------------------------------------------------------------------------------

    def quiesce(self, max_rounds: int = 256) -> Dict[str, int]:
        """Drain every zone down into the post-groomed zone.

        Grooms until the committed log is empty, post-grooms everything
        groomed so far, and drains the indexer until every published PSN
        has evolved.  Afterwards the index's visible version consists of
        post-groomed runs only (the groomed watermark covers every
        groomed block), which is the state an online split streams out:
        one zone, zero-decode, fully assigned ``beginTS``.
        """
        grooms = 0
        for _ in range(max_rounds):
            if self.committed_log.pending_rows() == 0:
                break
            if self.groomer.groom() is not None:
                grooms += 1
        else:
            raise RuntimeError("quiesce: committed log did not drain")
        self.post_groomer.post_groom()
        for _ in range(max_rounds):
            if self.index.indexed_psn >= self.post_groomer.max_psn:
                break
            self.indexer.drain()
        else:
            raise RuntimeError("quiesce: indexer did not catch up")
        return {
            "grooms": grooms,
            "max_psn": self.post_groomer.max_psn,
            "indexed_psn": self.index.indexed_psn,
        }

    # ------------------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------------------

    def current_snapshot_ts(self) -> int:
        """Freshest groomed-visible snapshot timestamp."""
        return self.clock.now()

    # -- index wrappers: each calls the right UmziIndex itself -- same
    # arguments, same arity and type errors surfacing from the index, same
    # counters -- so a lookup or scan builds no Query and no plan; only
    # typed queries (``query``) are planned.

    def index_lookup(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
    ) -> Optional[IndexEntry]:
        """Pure index point lookup (what the paper's experiments time)."""
        return self.index.lookup(
            equality_values, sort_values,
            query_ts if query_ts is not None else self.current_snapshot_ts(),
        )

    def index_batch_lookup(
        self,
        keys: Sequence[Tuple[Tuple[KeyValue, ...], Tuple[KeyValue, ...]]],
        query_ts: Optional[int] = None,
    ) -> List[Optional[IndexEntry]]:
        definition = self.index.definition
        widths = len(definition.equality_columns), len(definition.sort_columns)
        # A bare key is the pair concatenated, so a mis-split pair is
        # refused here, before the pairs are joined.
        if any((len(eq), len(sort)) != widths for eq, sort in keys):
            raise QueryError(
                "every point lookup must bind all %d equality and %d sort "
                "columns" % widths
            )
        return self.index.batch_lookup(
            [(*eq, *sort) for eq, sort in keys],
            query_ts if query_ts is not None else self.current_snapshot_ts(),
        )

    def point_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
        freshness: str = "groomed",
    ) -> Optional[Record]:
        """Index lookup + record fetch through the block catalog.

        ``freshness`` selects the snapshot class (paper section 3: "a query
        may need to access data in the live zone, groomed zone, and/or the
        post-groomed zone"):

        * ``"groomed"`` (default) -- everything groomed so far, i.e. the
          quorum-readable snapshot the index covers;
        * ``"live"`` -- additionally scan the (small, unindexed) live zone
          for committed-but-not-yet-groomed writes; the newest committed
          write for the key wins.  Live-zone versions have no ``beginTS``
          yet (the groomer assigns it), so explicit ``query_ts`` time
          travel only applies to the indexed zones.
        """
        if freshness not in ("groomed", "live"):
            raise ValueError(f"unknown freshness level {freshness!r}")
        if freshness == "live" and query_ts is None:
            live_hit = self._live_zone_lookup(equality_values, sort_values)
            if live_hit is not None:
                return live_hit
        entry = self.index_lookup(equality_values, sort_values, query_ts)
        if entry is None:
            return None
        return self.catalog.fetch_record(entry.rid)

    def _live_zone_lookup(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
    ) -> Optional[Record]:
        """Scan the committed log for the newest write of one key.

        The live zone is deliberately unindexed (section 3: grooming is
        frequent, the zone stays small), so this is a linear scan in commit
        order; the last match is the newest committed version.
        """
        target = tuple(equality_values) + tuple(sort_values)
        newest: Optional[Tuple[int, Tuple[KeyValue, ...]]] = None
        for transaction in self.committed_log.peek():
            for row in transaction.rows:
                eq, sort, _ = self._extract(row)
                if eq + sort == target:
                    candidate = (transaction.commit_seq, row)
                    if newest is None or candidate[0] >= newest[0]:
                        newest = candidate
        if newest is None:
            return None
        # beginTS is assigned at groom time; expose the tentative commit
        # sequence so callers can still order live versions.
        return Record(values=newest[1], begin_ts=newest[0])

    def range_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: Optional[int] = None,
        fetch_records: bool = False,
    ) -> List:
        return self._scan(
            self.index, equality_values, sort_lower, sort_upper, query_ts,
            fetch_records,
        )

    def _scan(
        self, index: UmziIndex, equality_values, sort_lower, sort_upper,
        query_ts: Optional[int], fetch_records: bool,
    ) -> List:
        """``index.scan`` at the default snapshot: entries, or their records."""
        entries = index.scan(
            equality_values, sort_lower, sort_upper,
            query_ts if query_ts is not None else self.current_snapshot_ts(),
        )
        if not fetch_records:
            return entries
        return self.catalog.fetch_records([entry.rid for entry in entries])

    # -- secondary index queries -------------------------------------------------

    def secondary_scan(
        self,
        index_name: str,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: Optional[int] = None,
        fetch_records: bool = False,
    ) -> List:
        """Scan a secondary index; secondary keys are not unique, so this
        returns every matching row's newest visible version."""
        return self._scan(
            self.indexes.get(index_name).index, equality_values, sort_lower,
            sort_upper, query_ts, fetch_records,
        )

    def secondary_lookup(
        self,
        index_name: str,
        equality_values: Sequence[KeyValue] = (),
        sort_prefix: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
    ) -> List[IndexEntry]:
        """All rows matching one secondary value (a prefix scan: the
        secondary key is internally suffixed with the primary key)."""
        return self.secondary_scan(
            index_name,
            equality_values,
            sort_lower=tuple(sort_prefix) or None,
            sort_upper=tuple(sort_prefix) or None,
            query_ts=query_ts,
        )

    # -- typed queries through the access-path planner (ISSUE 9) -----------------

    def plan_query(self, query: Query, values: Values) -> AccessPlan:
        """Compile a typed query without executing it.

        ``ShardConfig.planner`` selects the cost-based planner (default)
        or the always-primary baseline.  An ``index_hint`` restricts the
        smart planner's candidates to that index.  ``values`` are the
        query's type-checked :func:`bind_values` (the cluster binds once
        for all its shards).
        """
        if self.config.planner == "baseline":
            return plan_baseline(query, self.schema, self.indexes)
        return plan_smart(
            query, self.schema, self.indexes, self.synopses, values
        )

    def explain(self, query: Query) -> Dict[str, object]:
        """The chosen plan's ``explain()`` dict (no execution)."""
        return self.plan_query(query, bind_values(self.schema, query)).explain()

    def cannot_match(self, query: Query, values: Values) -> bool:
        """Do this shard's synopses prove the (bound) query returns nothing
        from it?  What the cluster prunes a scatter by."""
        return cannot_match(query, self.indexes, self.synopses, values)

    def query(self, query: Query) -> List[Tuple[KeyValue, ...]]:
        """Execute a typed query; returns projected rows, deterministically
        sorted by (row values, primary key).

        The planner picks the access path: primary point/scan, a
        secondary prefix scan whose hits are resolved against the
        primary by RID (batched point lookups, every predicate
        re-checked on the fetched record), or an index-only answer read
        entirely from a covering index's entries.  Identical rows for
        identical queries under either planner -- the ablation the A15
        bench byte-compares.
        """
        tagged = self._query_tagged(query, bind_values(self.schema, query))
        tagged.sort(key=lambda item: (item[2], item[0]))
        return [row for _, _, row in tagged]

    def _query_tagged(
        self, query: Query, values: Values
    ) -> List[Tuple[Tuple[KeyValue, ...], int, Tuple[KeyValue, ...]]]:
        """Execute, returning one ``(pk, begin_ts, row)`` per key, unordered.

        ``values`` are the query's type-checked :func:`bind_values`.  The
        pk/begin_ts tags let the cluster layer merge scatter-gather and
        split-migration double-reads newest-wins per primary key before
        dropping the tags; whoever hands out rows sorts them.
        """
        plan = self.plan_query(query, values)
        ts = query.query_ts if query.query_ts is not None else self.clock.now()
        return self._execute_plan(plan, ts)

    def _execute_plan(
        self, plan: AccessPlan, ts: int
    ) -> List[Tuple[Tuple[KeyValue, ...], int, Tuple[KeyValue, ...]]]:
        """Run a bound plan: index step, entry-level residuals, then the
        fetch-back / record fetch / index-only tail.  Each step's block
        reads are attributed to its component (``index:<name>``,
        ``records``); whatever was attributed before is restored at the
        end."""
        index = self.indexes.get(plan.index_name).index
        attribute = self.hierarchy.attribute_reads
        attributed = attribute(f"index:{plan.index_name}")
        try:
            if plan.mode == "point":
                hit = index.lookup(plan.equality_values, plan.sort_values, ts)
                entries = [] if hit is None else [hit]
            else:
                entries = index.scan(
                    plan.equality_values, plan.sort_lower, plan.sort_upper, ts
                )
            if plan.index_only or plan.fetch_back or plan.entry_residuals:
                # One row per entry: its columns as ``Predicate.offset`` and
                # the plan's ``entry_pk`` / ``entry_row`` getters index
                # them, then its beginTS and RID -- everything below is a
                # pass over these.
                rows = [
                    entry.equality_values + entry.sort_values
                    + entry.include_values + (entry.begin_ts, entry.rid)
                    for entry in entries
                ]
                for p in plan.entry_residuals:
                    rows = _within(
                        rows, [row[p.offset] for row in rows], p.low, p.high
                    )
                if plan.index_only:
                    return self._project_entries(plan, rows)
                if plan.fetch_back:
                    rids = self._fetch_back_rids(plan.entry_pk, rows, ts)
                else:
                    rids = [row[-1] for row in rows]
            else:
                rids = [entry.rid for entry in entries]
            attribute("records")
            records = self.catalog.fetch_records(rids)
        finally:
            attribute(attributed)
        for p in plan.record_checks:
            records = _within(
                records, [record.values[p.position] for record in records],
                p.low, p.high,
            )
        record_pk, record_row = plan.record_pk, plan.record_row
        if record_row is None:  # the full row: the record's own tuple
            return [
                (record_pk(record.values), record.begin_ts, record.values)
                for record in records
            ]
        return [
            (record_pk(record.values), record.begin_ts, record_row(record.values))
            for record in records
        ]

    @staticmethod
    def _project_entries(plan: AccessPlan, rows: List[Tuple]) -> List:
        """The index-only answer, read off the entry rows."""
        entry_pk, entry_row = plan.entry_pk, plan.entry_row
        produced = [(entry_pk(row), row[-2], entry_row(row)) for row in rows]
        if plan.index_name == PRIMARY_INDEX_NAME:
            return produced
        # Newest-wins dedup per primary key: only an index-only secondary
        # scan can surface several versions of one row (distinct full entry
        # keys); the newest beginTS is the visible one.
        best: Dict[Tuple[KeyValue, ...], Tuple] = {}
        for tagged in produced:
            held = best.get(tagged[0])
            if held is None or tagged[1] > held[1]:
                best[tagged[0]] = tagged
        return list(best.values())

    def _fetch_back_rids(self, entry_pk, rows: List[Tuple], ts: int) -> List:
        """Resolve secondary hits against the primary (ISSUE 9).

        Secondary entries recover the primary key (suffixed specs give
        every pk column an entry slot); the deduplicated keys become one
        batched primary point lookup, whose hits' RIDs become one batched
        record fetch with every predicate re-checked on the record -- the
        answer is byte-identical to the baseline primary path even when a
        stale secondary entry surfaces a row whose key has since changed.
        """
        keys = list(map(
            self._primary_key_of_pk, sorted(set(map(entry_pk, rows)))
        ))
        self.hierarchy.attribute_reads(f"index:{PRIMARY_INDEX_NAME}")
        return [
            hit.rid for hit in self.index.batch_lookup(keys, ts)
            if hit is not None
        ]

    def time_travel(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
        query_ts: int,
        max_versions: int = 16,
    ) -> List[Record]:
        """The visible version at ``query_ts`` plus its prevRID chain."""
        entry = self.index_lookup(equality_values, sort_values, query_ts)
        if entry is None:
            return []
        versions: List[Record] = []
        record = self.catalog.fetch_record(entry.rid)
        versions.append(record)
        while record.prev_rid is not None and len(versions) < max_versions:
            record = self.catalog.fetch_record(record.prev_rid)
            versions.append(record)
        return versions

    # ------------------------------------------------------------------------------
    # degraded-read mode (ISSUE 7)
    # ------------------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded_pin is not None

    def enter_degraded_mode(self) -> None:
        """Pin the current run-list version for brownout serving.

        Idempotent.  While degraded, :meth:`degraded_point_query` /
        :meth:`degraded_range_query` answer from the pinned snapshot:
        the pin keeps every run of the version alive in the local tiers
        (cache eviction skips pinned runs), so queries stay off the
        browning-out shared tier.  The answers are *stale-bounded*: as
        fresh as the moment the breaker opened, never fresher.
        """
        with self._degraded_lock:
            if self._degraded_pin is None:
                self._degraded_pin = self.index.pin_snapshot()

    def exit_degraded_mode(self) -> None:
        """Release the degraded-mode pin (idempotent)."""
        with self._degraded_lock:
            pin = self._degraded_pin
            self._degraded_pin = None
        if pin is not None:
            pin.release()

    def degraded_point_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
    ) -> Optional[Record]:
        """Point query against the degraded-mode snapshot pin."""
        with self._degraded_lock:
            pin = self._degraded_pin
        if pin is None:
            raise RuntimeError("shard is not in degraded mode")
        ts = query_ts if query_ts is not None else self.current_snapshot_ts()
        entry = pin.executor.lookup(equality_values, sort_values, ts)
        if entry is None:
            return None
        return self.catalog.fetch_record(entry.rid)

    def degraded_range_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: Optional[int] = None,
    ) -> List[IndexEntry]:
        """Range scan against the degraded-mode snapshot pin."""
        with self._degraded_lock:
            pin = self._degraded_pin
        if pin is None:
            raise RuntimeError("shard is not in degraded mode")
        ts = query_ts if query_ts is not None else self.current_snapshot_ts()
        return pin.executor.scan(equality_values, sort_lower, sort_upper, ts)

    # ------------------------------------------------------------------------------
    # introspection / recovery
    # ------------------------------------------------------------------------------

    def crash_and_recover(self):
        """Simulate an indexer-node crash and recover every index."""
        self.hierarchy.crash_local_tiers()
        self.catalog.forget_decoded()
        primary_state = self.index.recover()
        for shard_index in self.indexes.secondaries.values():
            shard_index.index.recover()
        return primary_state

    def stats(self) -> Dict[str, object]:
        return {
            "cycle": self._cycle,
            "live_rows": self.committed_log.pending_rows(),
            "groomed_blocks": len(self.catalog.live_groomed_ids()),
            "max_psn": self.post_groomer.max_psn,
            "indexed_psn": self.index.indexed_psn,
            "index": self.index.stats(),
            "io": self.hierarchy.stats.snapshot(),
            "epochs": self.hierarchy.stats.epochs.snapshot(),
            "qos": self.hierarchy.stats.qos.snapshot(),
        }


__all__ = ["ShardConfig", "WildfireShard"]
