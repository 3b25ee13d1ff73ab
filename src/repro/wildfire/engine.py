"""The shard facade: one table shard with the full Wildfire lifecycle.

Ties together the committed log, groomer, post-groomer, indexer daemon and
the Umzi index over one storage hierarchy, and exposes:

* ingestion (auto-commit upserts or explicit transactions);
* one lifecycle driver, :meth:`WildfireShard.tick` -- groom, post-groom
  every ``post_groom_every`` cycles (the paper's "groomer runs every
  second, post-groomer every 20 seconds" as a cycle ratio), evolve in PSN
  order, merge -- called by the caller (:meth:`run_cycles`) or looped by
  one background thread per shard (:meth:`start_daemons`);
* snapshot-isolation reads: point lookups, typed queries (a range read
  is one whose predicates bind the primary key), batched lookups, and
  time travel via explicit query timestamps, each resolving RIDs to
  records through the block catalog.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encoding import KeyValue
from repro.core.entry import IndexEntry
from repro.core.index import UmziConfig
from repro.core.maintenance import MaintenanceService
from repro.core.query import QueryError, SnapshotTooOldError
from repro.planner import (
    AccessPlan,
    Query,
    SynopsisCatalog,
    plan_baseline,
    plan_smart,
)
from repro.planner.plan import Binding, tuple_getter
from repro.planner.smart import cannot_match
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.retry import StorageBrownout, TransientIOError
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.clock import HybridClock, cycles_span
from repro.wildfire.groomer import Groomer
from repro.wildfire.indexer import IndexerDaemon
from repro.wildfire.indexes import PRIMARY_INDEX_NAME, ShardIndexes
from repro.wildfire.postgroomer import PostGroomer
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.transaction import Transaction
from repro.wildfire.txlog import CommittedLog


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


# Groom (then indexer-drain) rounds ``quiesce`` allows before giving up.
QUIESCE_MAX_ROUNDS = 256

# How far back, in groom cycles (a beginTS's high bits), an AS-OF read
# reaches: each cycle sets the retention horizon this far below the
# snapshot; merges collect below it, and an older ``query_ts`` is refused.
TIME_TRAVEL_WINDOW_CYCLES = 64
_WINDOW_TS = cycles_span(TIME_TRAVEL_WINDOW_CYCLES)  # the same, in beginTS units

# A vouched row's beginTS and RID (``_execute_plan``'s entry rows end so).
_BEGIN_TS, _RID = itemgetter(-2), itemgetter(-1)


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
        self.maintenance = MaintenanceService(self.index)
        self._secondary_maintenance = [
            MaintenanceService(si.index)
            for si in self.indexes.secondaries.values()
        ]
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
        self._daemon_thread: Optional[threading.Thread] = None
        self._daemons_stop = threading.Event()
        self._cycle = 0
        # Maintenance backpressure (ISSUE 7): when a DaemonScheduler is
        # attached, every cycle -- a caller's tick or the daemon's -- first
        # asks its gate; throttled cycles do no maintenance work at all.
        self._scheduler = None
        # Degraded-read mode (ISSUE 7): a long-lived SnapshotPin over the
        # primary index, opened while the shared tier's breaker is open so
        # queries answer from local tiers + a pinned versionset snapshot.
        self.degraded_pin = None
        self._degraded_lock = threading.Lock()

    # ------------------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self.schema, self.clock, self.committed_log)

    def ingest(self, rows: Sequence[Sequence[KeyValue]]) -> int:
        """Auto-commit upsert of rows (or a ``ColumnBatch``); returns the commit seq."""
        transaction = self.begin()
        transaction.upsert_many(rows)
        commit_seq = transaction.commit()
        return commit_seq if commit_seq is not None else 0

    # ------------------------------------------------------------------------------
    # lifecycle -- the one driver
    # ------------------------------------------------------------------------------

    def attach_scheduler(self, scheduler) -> None:
        """Install a maintenance-backpressure gate (or ``None`` to clear).

        ``scheduler`` is any object with an ``allow_maintenance() -> bool``
        method (see :class:`repro.qos.scheduler.DaemonScheduler`); it is
        consulted once per shard cycle, at the head of :meth:`tick` --
        whether a caller or the :meth:`start_daemons` thread runs it.
        """
        self._scheduler = scheduler

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
            horizon = max(0, self.clock.snapshot_ts - _WINDOW_TS)
            for shard_index in self.indexes.all():
                shard_index.index.retention_ts = horizon
            merges = self.maintenance.step()
            for shard_index, service in zip(self.indexes.secondaries.values(),
                                            self._secondary_maintenance):
                shard_index.repair(service.step(), horizon)
            if merges:
                report["merges"] = merges
        except TransientIOError as exc:
            # Under qos supervision an aborted maintenance cycle must not
            # take the serving loop down: the groomer has requeued its rows
            # (no snapshot covers a run it published before the abort), and
            # the scheduler throttles the next cycles until the storm
            # passes.  Without a scheduler the error propagates.
            if self._scheduler is None:
                raise
            report["maintenance_error"] = type(exc).__name__
        return report

    def run_cycles(self, cycles: int) -> List[Dict[str, object]]:
        """Drive ``cycles`` ticks."""
        return [self.tick() for _ in range(cycles)]

    # ------------------------------------------------------------------------------
    # lifecycle -- the daemon thread (end-to-end experiments)
    # ------------------------------------------------------------------------------

    def start_daemons(self, groom_interval_s: float = 0.05) -> None:
        """Run the lifecycle in one background thread per shard.

        The thread loops :meth:`tick` -- groom, post-groom every
        ``config.post_groom_every`` cycles, evolve, merge -- then sleeps
        ``groom_interval_s``, the scaled-down "every second" of the
        paper's 1s/20s cadence.  The gate and the ``TransientIOError``
        policy are :meth:`tick`'s own.

        **Query safety.**  It is safe to issue point/typed/batch queries
        from any number of threads while the daemon runs: each query pins
        an immutable run-list version -- a single Ref/Unref -- and runs
        retired by concurrent evolves/merges are only physically reclaimed
        once no live version contains them.
        """
        if self.daemons_running:
            raise RuntimeError("daemons already running")
        self._daemons_stop.clear()
        self._daemon_thread = threading.Thread(
            target=self._run_daemon,
            args=(groom_interval_s,),
            name="wildfire-maintenance",
            daemon=True,
        )
        self._daemon_thread.start()

    def _run_daemon(self, interval_s: float) -> None:
        while not self._daemons_stop.is_set():
            self.tick()
            self._daemons_stop.wait(interval_s)

    @property
    def daemons_running(self) -> bool:
        """True while the :meth:`start_daemons` thread is alive.

        Without a scheduler a ``TransientIOError`` from :meth:`tick`
        propagates and ends the thread; this then reads False.
        """
        thread = self._daemon_thread
        return thread is not None and thread.is_alive()

    def stop_daemons(self) -> None:
        """Stop the daemon thread, waiting out the tick it is running."""
        self._daemons_stop.set()
        if self._daemon_thread is not None:
            self._daemon_thread.join()
            self._daemon_thread = None

    # ------------------------------------------------------------------------------
    # lifecycle -- quiesce (shard split support, ISSUE 8)
    # ------------------------------------------------------------------------------

    def quiesce(self) -> Dict[str, int]:
        """Drain every zone down into the post-groomed zone.

        Grooms until the committed log is empty, post-grooms everything
        groomed so far, and drains the indexer until every published PSN
        has evolved.  Afterwards the index's visible version consists of
        post-groomed runs only (the groomed watermark covers every
        groomed block), which is the state an online split streams out:
        one zone, zero-decode, fully assigned ``beginTS``.
        """
        grooms = 0
        for _ in range(QUIESCE_MAX_ROUNDS):
            if self.committed_log.pending_rows() == 0:
                break
            if self.groomer.groom() is not None:
                grooms += 1
        else:
            raise RuntimeError("quiesce: committed log did not drain")
        self.post_groomer.post_groom()
        for _ in range(QUIESCE_MAX_ROUNDS):
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
        return self.clock.snapshot_ts

    def _as_of(self, query_ts: int) -> int:
        """An explicit ``query_ts``, refused below the retention horizon,
        where merges collect.  A door checks before it reads and again
        after: ``tick`` raises the horizon before its merges run, so a read
        that pinned a run they collected sees the raised horizon by then.
        A read with no ``query_ts`` pays nothing for the check."""
        if query_ts < self.index.retention_ts:
            raise SnapshotTooOldError(f"query_ts {query_ts} is below the retention "
                                      f"horizon {self.index.retention_ts}")
        return query_ts

    # -- primary wrappers: each calls the primary UmziIndex itself -- same
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
        if query_ts is None:
            return self.index.lookup(equality_values, sort_values, self.clock.snapshot_ts)
        entry = self.index.lookup(equality_values, sort_values, self._as_of(query_ts))
        self._as_of(query_ts)
        return entry

    def index_batch_lookup(
        self,
        keys: Sequence[Tuple[Tuple[KeyValue, ...], Tuple[KeyValue, ...]]],
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
            [(*eq, *sort) for eq, sort in keys], self.clock.snapshot_ts
        )

    def point_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
        key: Optional[bytes] = None,
    ) -> Optional[Record]:
        """Index lookup + record fetch through the block catalog (``key``:
        the values' lookup key, when a routed table point encoded it).

        Reads the groomed snapshot (or ``query_ts``): the live zone is
        never read (see docs/architecture.md).
        """
        ts = self._as_of(query_ts) if query_ts is not None else self.clock.snapshot_ts
        pin = self.degraded_pin
        index = self.index if pin is None else pin.executor
        entry = index.lookup(equality_values, sort_values, ts, key)
        if query_ts is not None:
            self._as_of(query_ts)
        if entry is None:
            return None
        return self.catalog.fetch_record(entry.rid)

    # -- typed queries through the access-path planner (ISSUE 9) -----------------

    def plan_query(self, query: Query, binding: Binding) -> AccessPlan:
        """Compile a typed query without executing it.

        ``ShardConfig.planner`` selects the cost-based planner (default)
        or the always-primary baseline.  An ``index_hint`` restricts the
        smart planner's candidates to that index.  ``binding`` is the
        query's one :class:`Binding` (the cluster binds once for all its
        shards).
        """
        if self.config.planner == "baseline":
            return plan_baseline(query, self.schema, self.indexes, binding)
        return plan_smart(
            query, self.schema, self.indexes, self.synopses, binding
        )

    def explain(self, query: Query) -> Dict[str, object]:
        """The chosen plan's ``explain()`` dict (no execution)."""
        return self.plan_query(query, Binding(self.schema, query)).explain()

    def cannot_match(self, query: Query, binding: Binding) -> bool:
        """Do this shard's synopses prove the (bound) query returns nothing
        from it?  What the cluster prunes a scatter by."""
        return cannot_match(query, self.indexes, self.synopses, binding)

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
        tagged = self._query_tagged(query, Binding(self.schema, query))
        tagged.sort(key=lambda item: (item[2], item[0]))
        return [row for _, _, row in tagged]

    def _query_tagged(
        self, query: Query, binding: Binding
    ) -> List[Tuple[Tuple[KeyValue, ...], int, Tuple[KeyValue, ...]]]:
        """Execute, returning one ``(pk, begin_ts, row)`` per key, unordered.

        ``binding`` is the query's one :class:`Binding`.  The
        pk/begin_ts tags let the cluster layer merge scatter-gather and
        split-migration double-reads newest-wins per primary key before
        dropping the tags; whoever hands out rows sorts them.  A degraded
        shard plans on the primary alone, the one index its pin holds: a
        query only a secondary serves waits for the shared tier.
        """
        ts = self._as_of(query.query_ts) if query.query_ts is not None else self.clock.snapshot_ts
        if self.degraded_pin is not None:
            if not set(self.index_spec.equality_columns) <= set(query.shape[0]):
                raise StorageBrownout("shared", 0)
            query = replace(query, index_hint=PRIMARY_INDEX_NAME)
            binding = Binding(self.schema, query)
        tagged = self._execute_plan(self.plan_query(query, binding), ts)
        if query.query_ts is not None:
            self._as_of(query.query_ts)
        return tagged

    def _execute_plan(
        self, plan: AccessPlan, ts: int
    ) -> List[Tuple[Tuple[KeyValue, ...], int, Tuple[KeyValue, ...]]]:
        """Run a bound plan: index step, entry-level residuals, then the
        vouch / record fetch / index-only tail.  Each step's block reads
        are attributed to its component (``index:<name>``, ``records``);
        whatever was attributed before is restored at the end."""
        shard_index = self.indexes.get(plan.index_name)
        pin = self.degraded_pin  # it holds the primary alone
        index = (pin.executor if pin is not None and shard_index is self.indexes.primary
                 else shard_index.index)
        # Read before the scan, the ghost map too: a repair may forget once
        # the scan has unpinned its runs, but into a new map, so this one
        # still doubts every stale hit the scan returns.
        horizon, ghosted = min(ts, self.clock.snapshot_ts), shard_index.ghosted
        attribute = self.hierarchy.attribute_reads
        attributed = attribute(f"index:{plan.index_name}")
        answered: List = []
        try:
            if plan.mode == "point":
                hit = index.lookup(plan.equality_values, plan.sort_values, ts)
                entries = [] if hit is None else [hit]
            else:
                entries = index.scan(
                    plan.equality_values, plan.sort_lower, plan.sort_upper, ts,
                    plan.scan_bounds,
                )
            # The residuals read each entry's own field, so only the
            # entries that pass them all become rows below.
            for p, (part, position) in zip(plan.entry_residuals, plan.entry_slots):
                entries = _within(
                    entries, [entry[part][position] for entry in entries],
                    p.low, p.high,
                )
            if plan.index_only or plan.fetch_back:
                # One row per entry: its columns (as ``plan.entry_pk`` /
                # ``entry_row`` index them), then its beginTS and RID.
                rows = [
                    entry.equality_values + entry.sort_values
                    + entry.include_values + (entry.begin_ts, entry.rid)
                    for entry in entries
                ]
                # A hit at a clean key or at its key's recorded newest is
                # the row's newest version and answers for itself; one
                # older than a recorded newest within the horizon is
                # dropped (the newest is its own hit).  The primary holds
                # the answer for the rest.
                if shard_index.ghosted is not ghosted:  # a groom since marks the new one
                    ghosted = {**ghosted, **shard_index.ghosted}
                entry_pk, ghost_key = plan.entry_pk, plan.ghost_key
                vouched, doubtful = [], []
                for row in rows:
                    newest = ghosted.get(ghost_key(row), row[-2])
                    if newest == row[-2]:
                        vouched.append(row)
                    elif newest is None or newest > horizon:
                        doubtful.append(row)
                if plan.index_only:
                    answered = list(zip(
                        map(entry_pk, vouched), map(_BEGIN_TS, vouched),
                        map(plan.entry_row, vouched),
                    ))
                    if not doubtful:
                        return answered
                rids = [] if plan.index_only else list(map(_RID, vouched))
                if doubtful:
                    rids += self._fetch_back_rids(entry_pk, doubtful, vouched, ts)
            else:
                rids = [entry.rid for entry in entries]
            attribute("records")
            records = self.catalog.fetch_records(rids)
        finally:
            attribute(attributed)
        for p in plan.record_checks:
            records = _within(
                records, [values[p.position] for values, _ in records],
                p.low, p.high,
            )
        record_pk, record_row = plan.record_pk, plan.record_row
        if record_row is None:  # the full row: the record's own tuple
            produced = [(record_pk(values), begin_ts, values)
                        for values, begin_ts in records]
        else:
            produced = [(record_pk(values), begin_ts, record_row(values))
                        for values, begin_ts in records]
        # Only an index-only plan with doubtful hits has answered rows.
        return answered + produced if answered else produced

    def _fetch_back_rids(self, entry_pk, rows: List, vouched: List, ts: int) -> List:
        """Resolve the ghosted hits the shard cannot vouch for.

        Secondary entries recover the primary key (suffixed specs give
        every pk column an entry slot); the deduplicated keys become one
        batched primary lookup, whose RIDs join the record fetch, where
        every predicate is re-checked: a moved row's stale entry drops out.
        A key with a ``vouched`` hit (its new entry, when a groom published
        between the horizon read and the scan) is answered by that hit.
        """
        pks = set(map(entry_pk, rows)).difference(map(entry_pk, vouched))
        keys = list(map(self._primary_key_of_pk, sorted(pks)))
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
    ) -> List[Record]:
        """The visible version at ``query_ts`` plus its whole prevRID
        chain, newest first."""
        entry = self.index_lookup(equality_values, sort_values, query_ts)
        if entry is None:
            return []
        versions: List[Record] = []
        record = self.catalog.fetch_record(entry.rid)
        versions.append(record)
        while record.prev_rid is not None:
            record = self.catalog.fetch_record(record.prev_rid)
            versions.append(record)
        return versions

    # ------------------------------------------------------------------------------
    # degraded-read mode (ISSUE 7)
    # ------------------------------------------------------------------------------

    def enter_degraded_mode(self) -> None:
        """Pin the current run-list version for brownout serving.

        Idempotent.  While degraded, :meth:`point_query` and typed
        queries answer through the primary's pinned snapshot executor:
        the pin keeps every run of the version alive in the local tiers
        (cache eviction skips pinned runs), so queries stay off the
        browning-out shared tier.  Secondaries are not pinned, so a typed
        query plans on the primary alone (no secondary plan or ghost
        vouch reads a stale pin).  The answers are *stale-bounded*: as
        fresh as the moment the breaker opened, never fresher.
        """
        with self._degraded_lock:
            if self.degraded_pin is None:
                self.degraded_pin = self.index.pin_snapshot()

    def exit_degraded_mode(self) -> None:
        """Release the degraded-mode pin (idempotent)."""
        with self._degraded_lock:
            pin = self.degraded_pin
            self.degraded_pin = None
        if pin is not None:
            pin.release()

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


__all__ = ["TIME_TRAVEL_WINDOW_CYCLES", "ShardConfig", "WildfireShard"]
