"""Multi-shard tables (paper sections 2.1, 3, 8).

"Inserted records are routed by the sharding key to different shards. ...
each Umzi index structure instance serves a single table shard.  There are
a number of indexer daemons running in the cluster.  Each runs
independently ... As a result, Umzi scales up and down nicely with more or
less indexer daemons."

This module provides that outer layer: a :class:`ShardedTable` routes
upserts by the hash of the sharding key, runs each shard's lifecycle
independently (shards share nothing -- separate storage hierarchies,
logs, catalogs and index instances), and answers queries by routing
(sharding key fully bound) or scatter-gather (otherwise) -- every query
kind through one pipeline, :meth:`ShardedTable._serve`.

**Overload protection (ISSUE 7).**  Constructed with a
:class:`~repro.qos.admission.QosConfig`, the table threads the full qos
stack through its serving path:

* every ``point_query``/``query``/``ingest`` passes a token-bucket
  :class:`~repro.qos.admission.AdmissionController` (typed
  ``Overloaded``/``DeadlineExceeded`` sheds, per-query deadlines on the
  simulated clock);
* a cluster-wide :class:`~repro.qos.scheduler.DaemonScheduler` throttles
  every shard's maintenance when the admission backlog, retry pressure,
  or an open breaker says queries need the bandwidth;
* each shard's shared tier gets a
  :class:`~repro.qos.breaker.CircuitBreaker`; while it is open, point and
  typed queries for that shard degrade to local tiers + a pinned
  versionset snapshot (counted as ``degraded_reads``) instead of
  erroring, and a shard that still cannot answer is named in a
  :class:`~repro.qos.errors.PartialResultError`.

**Routing epochs and online migration (ISSUES 8, 10).**  Routing goes
through immutable :class:`~repro.wildfire.shardmap.ShardMap` epochs
published versionset-style: every query pins the current map for its
lifetime (exactly one Ref and one Unref on the cluster ledger -- two
refcount operations per query), so a migration's two map publishes are
atomic swaps that no in-flight query can observe torn.
:meth:`split_shard` drains one shard into two successors and
:meth:`merge_shards` fuses them back, both online, both also *pumped*
in budgeted slices (:meth:`begin_split` / :meth:`begin_merge` +
:meth:`migration_step`) and both crash-safe
(:meth:`recover_migration`); the protocol itself -- phases, double-read
window, clock handoff, zero-decode copy, crash points -- lives in
:mod:`repro.wildfire.migration`.

**Scatter pruning (ISSUE 10).**  Typed scatter-gather queries consult
each live shard's per-index :class:`AccessPathSynopsis` first and skip
shards whose observed key ranges provably cannot match the query's
bounds (every row version is present in every index, so a disjoint
range on *any* index rules the shard out); ``scatter_stats()`` counts
considered/contacted/pruned shards.

All counters land on the cluster's own qos ledger
(:meth:`ShardedTable.qos_stats`); admission queueing delays are charged
to a synthetic ``"admission"`` tier on the same ledger, so the cluster's
simulated clock includes time spent waiting in queue.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.definition import COLUMN_ENCODERS, encode_search_key, encode_typed
from repro.core.encoding import EncodingError, KeyValue, fnv1a64, fnv1a64_column
from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerState, CircuitBreaker
from repro.qos.errors import PartialResultError
from repro.qos.scheduler import DaemonScheduler
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats, QosStats
from repro.storage.retry import StorageBrownout, TransientIOError
from repro.planner import Query
from repro.planner.plan import Binding, PlanError
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.migration import Migration, MigrationError
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema
from repro.wildfire.shardmap import ShardMap, ShardMapRegistry, SlotRoute

ADMISSION_TIER = "admission"
_SHARD_SIM_NS = attrgetter("hierarchy.stats.total_sim_ns")  # read in C

Row = Tuple[KeyValue, ...]
TaggedRow = Tuple[Row, int, Row]  # (primary key, beginTS, projected row)


class QueryKind(NamedTuple):
    """What :meth:`ShardedTable._serve` asks each shard and how it folds
    their parts.

    Methods are named, not bound: each call looks them up on the
    instance, so a test or the e2e tracer can replace them per shard.
    """

    live: str  # shard method answering the part, live or degraded
    combine: str  # table method folding per-shard parts into the answer


POINT = QueryKind("point_query", "_newest_record")
# A point whose routing bytes are its lookup key, handed to its shards.
KEYED_POINT = QueryKind("point_query", "_newest_record")
# A typed part is ``(pk, beginTS, row)``-tagged: even a lone holder's
# part is folded (tags dropped, rows sorted) before it is the answer.
TYPED = QueryKind("_query_tagged", "_merge_rows")


class ShardedTable:
    """A Wildfire table split into independent shards."""

    def __init__(
        self,
        schema: TableSchema,
        index_spec: IndexSpec,
        num_shards: int = 4,
        config: Optional[ShardConfig] = None,
        qos: Optional[QosConfig] = None,
        hierarchy_factory: Optional[Callable[[int], StorageHierarchy]] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not schema.sharding_key:
            raise SchemaError("a sharded table needs a sharding key")
        self.schema = schema
        self.index_spec = index_spec
        self.num_shards = num_shards
        self._config = config
        # ``hierarchy_factory(shard_id)`` lets callers supply per-shard
        # storage (e.g. FaultyTier-backed hierarchies for brownout tests);
        # shards still share nothing -- one hierarchy each.
        self._hierarchy_factory = hierarchy_factory
        self._plan_templates: Dict = {}
        self.shards: List[WildfireShard] = [
            self._build_shard(shard_id) for shard_id in range(num_shards)
        ]
        self._shard_positions = schema.positions(schema.sharding_key)
        self._shard_specs = [schema.columns[p] for p in self._shard_positions]
        # Where a read's key holds the sharding values (for routing reads);
        # None when it does not hold them all, so reads can only scatter.
        self._shard_slots = index_spec.key_slots(schema.sharding_key)
        # No hash column and the sharding key as the whole sort key: a point
        # binding exactly these sort values routes by its lookup key's bytes.
        keyed = not index_spec.equality_columns and (
            tuple(index_spec.sort_columns) == tuple(schema.sharding_key))
        self._key_width = len(schema.sharding_key) if keyed else -1

        # -- overload protection (ISSUE 7) --------------------------------
        self.qos_config = qos
        self._qos_io = IOStats()  # cluster ledger: admission tier + QosStats
        self._admission: Optional[AdmissionController] = None
        self._scheduler: Optional[DaemonScheduler] = None
        self._breakers: List[Optional[CircuitBreaker]] = []
        if qos is not None:
            self._admission = AdmissionController(
                qos,
                stats=self._qos_io.qos,
                charge=lambda ns: self._qos_io.record_backoff(
                    ADMISSION_TIER, ns
                ),
            )
            self._scheduler = DaemonScheduler(
                qos, stats=self._qos_io.qos, admission=self._admission
            )
        for shard_id, shard in enumerate(self.shards):
            self._attach_qos(shard_id, shard)

        # -- routing epochs + online migration (ISSUES 8, 10) -------------
        # The cluster ledger's EpochStats belongs exclusively to the map
        # registry (shard run-lifecycle pins live on each shard's own
        # ledger), so "two refcount ops per query" is directly observable.
        self._maps = ShardMapRegistry(
            ShardMap.initial(num_shards), stats=self._qos_io.epochs
        )
        self._retired: Set[int] = set()
        # At most one migration (split *or* merge) is in flight; the lock
        # serializes their control flow (queries never take it).
        self._migration: Optional[Migration] = None
        self._migration_lock = threading.Lock()
        self._daemons_running = False
        self._daemon_interval = 0.05
        # -- typed scatter-gather pruning counters (ISSUE 10) --------------
        self._scatter_stats: Dict[str, int] = {
            "scatter_queries": 0,
            "shards_considered": 0,
            "shards_contacted": 0,
            "shards_pruned": 0,
        }

    def _build_shard(self, shard_id: int) -> WildfireShard:
        """A fresh shard sharing the table's compiled plan templates."""
        shard = WildfireShard(
            self.schema,
            self.index_spec,
            hierarchy=(
                self._hierarchy_factory(shard_id)
                if self._hierarchy_factory is not None
                else None
            ),
            config=self._config,
        )
        shard.indexes.plan_templates = self._plan_templates
        return shard

    def _attach_qos(self, shard_id: int, shard: WildfireShard) -> None:
        """Wire one shard into the qos stack (no-op without a config)."""
        if self.qos_config is None:
            self._breakers.append(None)
            return
        breaker = CircuitBreaker(
            f"shared/shard{shard_id}",
            self.qos_config.breaker,
            clock=self.sim_now,
            stats=self._qos_io.qos,
        )
        shard.hierarchy.attach_shared_breaker(breaker)
        shard.attach_scheduler(self._scheduler)
        self._scheduler.watch_breaker(breaker)
        self._scheduler.watch_faults(shard.hierarchy.stats.faults)
        self._breakers.append(breaker)

    # -- qos surface -----------------------------------------------------------------

    @property
    def admission(self) -> Optional[AdmissionController]:
        return self._admission

    @property
    def scheduler(self) -> Optional[DaemonScheduler]:
        return self._scheduler

    def breaker(self, shard_id: int) -> Optional[CircuitBreaker]:
        return self._breakers[shard_id]

    def qos_stats(self) -> QosStats:
        """The live cluster qos ledger (admission + breakers + scheduler)."""
        return self._qos_io.qos

    def epoch_stats(self):
        """The live routing-epoch ledger (map pins/publishes/reclaims).

        This is the cluster ledger's :class:`EpochStats` and it belongs
        exclusively to the :class:`ShardMapRegistry`, so "exactly two
        refcount operations per query" is directly observable on it;
        shard run-lifecycle pins are counted on each shard's own ledger.
        """
        return self._qos_io.epochs

    def sim_now(self) -> int:
        """Cluster simulated clock: arrival time + work + queue waits.

        The arrival clock (:meth:`advance_clock`) contributes so that
        idle simulated time also elapses for the circuit breakers: a
        breaker's open window can lapse while the cluster waits for the
        next client batch, not only while it burns work ns.
        """
        now = self._admission.now_ns if self._admission is not None else 0
        return sum(map(_SHARD_SIM_NS, self.shards), now + self._qos_io.total_sim_ns)

    def advance_clock(self, delta_ns: int) -> None:
        """Advance the admission arrival clock (offered-load time).

        Closed-loop drivers call this between client batches; without a
        qos config it is a no-op so drivers need not special-case."""
        if self._admission is not None:
            self._admission.advance(delta_ns)

    # -- routing --------------------------------------------------------------------

    @property
    def maps(self) -> ShardMapRegistry:
        """The routing-epoch registry (tests and the migration machine)."""
        return self._maps

    def routing_epoch(self) -> int:
        return self._maps.current.epoch

    def live_shard_ids(self) -> List[int]:
        """Shards that still serve (everything not retired by a split)."""
        return [
            shard_id
            for shard_id in range(len(self.shards))
            if shard_id not in self._retired
        ]

    def key_hash(self, sharding_values: Sequence[KeyValue]) -> int:
        """Of the values as ``upsert`` stores them (its ``EncodingError``,
        before anything is routed): 3 and 3.0 are one FLOAT64 key."""
        values = [s.validate(v) for s, v in zip(self._shard_specs, sharding_values)]
        return fnv1a64(encode_typed(self._shard_specs, values))

    def shard_of_row(self, row: Sequence[KeyValue]) -> int:
        return self.shard_of_key([row[i] for i in self._shard_positions])

    def shard_of_key(self, sharding_values: Tuple[KeyValue, ...]) -> int:
        """Where a new row for this sharding key lands *right now*."""
        return self._maps.current.write_shard(self.key_hash(sharding_values))

    def _bound_sharding_values(
        self, equality_values: Sequence[KeyValue], sort_values: Sequence[KeyValue]
    ) -> Optional[Tuple[KeyValue, ...]]:
        """Sharding values when the query binds them all, else ``None``."""
        if self._shard_slots is None:
            return None
        values = (equality_values, sort_values)
        try:
            return tuple([values[g][i] for g, i in self._shard_slots])
        except IndexError:
            return None

    # -- admission + ingestion -------------------------------------------------------

    def _admitted(self, serve: Callable, *args):
        """``serve(*args)`` behind admission: one token per call; the booked
        wait plus the work (``sim_now``, inline) past the deadline is a miss."""
        admission, io, shards = self._admission, self._qos_io, self.shards
        if admission is None:
            return serve(*args)
        due = admission.config.deadline_ns - admission.admit() + sum(
            map(_SHARD_SIM_NS, shards), admission.now_ns + io.total_sim_ns)
        try:
            return serve(*args)
        finally:
            if sum(map(_SHARD_SIM_NS, shards), admission.now_ns + io.total_sim_ns) > due:
                admission.stats.deadline_misses += 1

    def ingest(self, rows: Sequence[Sequence[KeyValue]]) -> Dict[int, int]:
        """Route rows to shards; returns rows-per-shard for observability.

        Under a qos config the whole batch passes admission control first
        (one token per batch) and its deadline is tracked like a query's.
        """
        return self._admitted(self._ingest_rows, rows)

    def _ingest_rows(self, rows: Sequence[Sequence[KeyValue]]) -> Dict[int, int]:
        # Checked before any row is routed (a refused batch commits nothing
        # on any shard); sharding values encoded as ``key_hash`` encodes them.
        batch = self.schema.validate_rows(rows)
        hashes = fnv1a64_column(list(map(b"".join, zip(*[
            COLUMN_ENCODERS[spec.ctype](batch.columns[p])
            for spec, p in zip(self._shard_specs, self._shard_positions)
        ]))))
        # One map pin covers the whole batch: every row of the batch is
        # routed by the same epoch, and a concurrent split's cutover
        # publish happens entirely before or entirely after it.
        shard_map = self._maps.pin()
        try:  # each shard is handed its rows' columns, validated above
            routes = map(shard_map.route_of, hashes)  # ShardMap.write_shard, a batch at once
            parts = batch.split(list(map(SlotRoute.write_shard, routes, hashes)))
            for shard_id, part in parts.items():
                self.shards[shard_id].ingest(part)
        finally:
            self._maps.unpin(shard_map.epoch)
        return {shard_id: len(part) for shard_id, part in parts.items()}

    # -- lifecycle --------------------------------------------------------------------

    def _maintenance_skip(self) -> Set[int]:
        """Shards whose lifecycle must not run right now.

        Retired sources stay readable for old-epoch pins but never groom
        again.  The targets of an open migration window (see
        :meth:`SlotRoute.fresh_write_shards`) are frozen until their
        final publish: grooming there would assign ``beginTS`` from a
        clock that has not yet been handed forward from the source(s),
        which would break the double-read's newest-wins comparison.
        """
        return self._retired | self._maps.current.fresh_write_shards()

    def tick(self) -> None:
        """One lifecycle cycle on every live shard (deterministic driver)."""
        skip = self._maintenance_skip()
        for shard_id, shard in enumerate(self.shards):
            if shard_id not in skip:
                shard.tick()

    def run_cycles(self, cycles: int) -> None:
        for _ in range(cycles):
            self.tick()

    def start_daemons(self, groom_interval_s: float = 0.05) -> None:
        self._daemons_running = True
        self._daemon_interval = groom_interval_s
        skip = self._maintenance_skip()
        for shard_id in range(len(self.shards)):
            if shard_id not in skip:
                self._start_shard_daemons(shard_id)

    def stop_daemons(self) -> None:
        self._daemons_running = False
        for shard in self.shards:
            shard.stop_daemons()

    # -- shard membership: the seam repro.wildfire.migration drives ----------------

    def _new_shard(self) -> int:
        """Append one fresh, empty shard wired into the qos stack."""
        shard_id = len(self.shards)
        shard = self._build_shard(shard_id)
        self.shards.append(shard)
        self._attach_qos(shard_id, shard)
        self.num_shards = len(self.shards)
        return shard_id

    def _retire_shard(self, shard_id: int) -> None:
        """Decommission a migration source: it keeps its data (an
        old-epoch pin may still read it) but never grooms again."""
        shard = self.shards[shard_id]
        shard.stop_daemons()
        shard.exit_degraded_mode()
        self._retired.add(shard_id)

    def _start_shard_daemons(self, shard_id: int) -> None:
        """Start one shard's daemons iff the cluster runs them (idempotent)."""
        shard = self.shards[shard_id]
        if self._daemons_running and not shard.daemons_running:
            shard.start_daemons(groom_interval_s=self._daemon_interval)

    # -- online migration (ISSUES 8, 10) -------------------------------------------

    def _begin_migration(
        self, advance: Callable, kind: str, *shard_ids: int
    ) -> Dict[str, object]:
        """Validate a request, park its phase machine in the (one)
        in-flight slot and make its first move."""
        with self._migration_lock:
            parked = self._migration
            if parked is not None:
                raise parked.direction.error(
                    f"a {parked.direction.kind} of shard(s) {parked.sources} is "
                    "already in flight; recover it first"
                )
            self._migration = Migration.begin(self, kind, shard_ids)
            return self._drive(advance)

    def _drive(self, advance: Callable, *args) -> Dict[str, object]:
        """Advance the in-flight migration; free the slot once it has
        landed or backed out.  A simulated crash leaves it parked."""
        migration = self._migration
        try:
            return advance(migration, *args)
        finally:
            if migration.finished:
                self._migration = None

    def split_shard(self, shard_id: int) -> Dict[str, object]:
        """Split one shard's slot into two successor shards, online.

        Serialized with other migrations; queries never take this lock.
        A :class:`~repro.faults.crash.SimulatedCrash` at any of the four
        ``split.*`` crash points leaves the phase machine parked for
        :meth:`recover_migration`.
        """
        return self._begin_migration(Migration.run, "split", shard_id)

    def merge_shards(self, left_id: int, right_id: int) -> Dict[str, object]:
        """Fuse a split slot's two successors back into one shard, online.

        The reversed migration: fresh writes land on the fused target
        while reads double-read target + old successor, then the
        ``single`` route is published and both sources retire.  The
        four ``merge.*`` crash points park the phase machine for
        :meth:`recover_migration`.
        """
        return self._begin_migration(Migration.run, "merge", left_id, right_id)

    def begin_split(self, shard_id: int) -> Dict[str, object]:
        """Start a *pumped* split: run the write cutover, then return.

        The copy advances in budgeted slices via :meth:`migration_step`
        interleaved with live traffic; the double-read window stays open
        (and correct) however long the pump takes.  The end state is
        byte-identical to a synchronous :meth:`split_shard`.
        """
        return self._begin_migration(Migration.start, "split", shard_id)

    def begin_merge(self, left_id: int, right_id: int) -> Dict[str, object]:
        """Start a *pumped* merge (see :meth:`begin_split`); the end
        state is byte-identical to a synchronous :meth:`merge_shards`."""
        return self._begin_migration(Migration.start, "merge", left_id, right_id)

    def migration_step(self, budget: int = 2048) -> Dict[str, object]:
        """Advance the in-flight migration by up to ``budget`` copied pairs.

        Runs the remaining phases (publish + retire) as soon as the copy
        stream drains.  Returns the state summary plus ``pulled`` (pairs
        copied this call); ``phase == "done"`` means it finished.
        """
        with self._migration_lock:
            if self._migration is None:
                raise MigrationError("no migration is in flight")
            return self._drive(Migration.step, budget)

    def recover_migration(self) -> Dict[str, object]:
        """Resume (or roll back) a migration interrupted by a crash.

        * crash before the write cutover (``*.pre_copy``): nothing was
          published -- discard the state, routing is fully-old;
        * crash anywhere after the cutover: roll *forward* by replaying
          the remaining phases (every copy step is idempotent) until the
          final map is published and the sources retired.

        Idempotent: calling with nothing interrupted is a no-op.
        """
        with self._migration_lock:
            if self._migration is None:
                return {"resumed": False, "epoch": self._maps.current.epoch}
            return self._drive(Migration.recover)

    # -- queries ----------------------------------------------------------------------

    def point_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
    ) -> Optional[Record]:
        """Routed when the sharding key is bound (it is, for a primary-key
        lookup: the sharding key is a subset of the primary key)."""
        args = (equality_values, sort_values, query_ts)
        if not equality_values and len(sort_values) == self._key_width:
            return self._admitted(self._serve, KEYED_POINT, sort_values, args)
        sharding_values = self._bound_sharding_values(equality_values, sort_values)
        return self._admitted(self._serve, POINT, sharding_values, args)

    def query(self, query: Query) -> List[Tuple[KeyValue, ...]]:
        """Planner-routed typed query across the cluster.

        Routed to one slot when the query's equality predicates bind
        every sharding-key column; otherwise a scatter-gather over all
        live shards.  Each shard plans its own access path (its planner
        sees its own statistics), returns ``(pk, beginTS, row)`` tagged
        rows, and the gather merges them newest-beginTS-wins per primary
        key -- exactly what a split-migration double-read needs -- before
        dropping the tags.  Rows come back sorted by (row values,
        primary key), identical to :meth:`WildfireShard.query`.

        A range read is a typed query whose predicates bind the primary
        key (``query_ts`` reads AS OF a snapshot).  It fails and degrades
        like :meth:`point_query` (see :meth:`_serve`).  Predicate values
        are type-checked (``PlanError``) and normalised first: a mistyped
        sharding value would hash to the wrong shard.
        """
        binding = Binding(self.schema, query)
        bound = dict(zip(query.shape[0], binding.values[0]))
        try:
            sharding_values = tuple(
                [bound[name] for name in self.schema.sharding_key]
            )
        except KeyError:
            sharding_values = None
        # Bound once, for every shard's pruning and planning alike.
        return self._admitted(
            self._serve, TYPED, sharding_values, (query, binding)
        )

    def _serve(
        self,
        kind: QueryKind,
        sharding_values: Optional[Tuple[KeyValue, ...]],
        args: tuple,
    ):
        """The one serving pipeline: pin -> route or scatter -> gather.

        Every door fails and degrades alike.  A browned-out shard answers
        from its degraded snapshot pin (:meth:`_shard_call`) unless it is
        a fresh-write holder of an open migration window: a snapshot
        could miss freshly cut-over writes, so those answer
        authoritatively or not at all.  A shard that still cannot answer
        -- retries exhausted, or a fresh holder browned out -- is named
        in a :class:`PartialResultError` with the partial answer, the
        cause and the serving epoch, never a bare ``TransientIOError``.

        A slot with a lone holder is one call, without the gather; a
        migration window's double-read and a scatter gather per-shard
        parts and combine them.  A ``KEYED_POINT`` hands its shards the
        routing bytes: its key is encoded once.
        """
        shard_map = self._maps.pin()
        try:
            if sharding_values is not None:
                try:  # by declared type, like key_hash: 3 routes as 3.0
                    encoded = encode_search_key(self._shard_specs, sharding_values)
                except EncodingError as exc:
                    raise PlanError(f"sharding key: {exc}") from None
                key_hash = fnv1a64(encoded)
                route = shard_map.route_of(key_hash)
                shard_ids = route.read_shards(key_hash)
                if kind is KEYED_POINT:
                    args = (*args, encoded)
                if len(shard_ids) == 1:
                    try:
                        part = self._shard_call(kind, shard_ids[0], args, True)
                    except TransientIOError as exc:
                        raise PartialResultError(
                            shard_ids, (), exc, epoch=shard_map.epoch
                        ) from exc
                    return self._merge_rows((part,), False) if kind is TYPED else part
                fresh = route.fresh_write_shards()
            else:
                shard_ids = shard_map.scatter_shards()
                if kind is TYPED:
                    shard_ids = self._prune_scatter(list(shard_ids), *args)
                fresh = shard_map.fresh_write_shards()
            parts: list = []
            failed: List[int] = []
            cause: Optional[BaseException] = None
            for shard_id in shard_ids:
                try:
                    parts.append(
                        self._shard_call(kind, shard_id, args, shard_id not in fresh)
                    )
                except TransientIOError as exc:
                    # Retry budget exhausted, or a brownout that may not
                    # be papered over: name the shard.
                    failed.append(shard_id)
                    cause = exc
            # Outside a migration window no key is held by two shards.
            answer = getattr(self, kind.combine)(parts, bool(fresh))
            if failed:
                if not isinstance(answer, list):  # a point's record or None
                    answer = [] if answer is None else [answer]
                raise PartialResultError(
                    tuple(failed), tuple(answer), cause, epoch=shard_map.epoch
                )
            return answer
        finally:
            self._maps.unpin(shard_map.epoch)

    def _shard_call(self, kind: QueryKind, shard_id: int, args: tuple, allow_degraded: bool):
        """One shard's part through ``kind.live``, deciding only when it enters
        or leaves degraded mode (its doors then read through the mode's pin)
        -- two attribute reads if not -- and counting a degraded answer."""
        shard = self.shards[shard_id]
        breaker = self._breakers[shard_id]
        if breaker is None:
            return getattr(shard, kind.live)(*args)
        if (breaker.recorded_state is BreakerState.CLOSED
                or breaker.state() is not BreakerState.OPEN):
            if shard.degraded_pin is not None:
                shard.exit_degraded_mode()
            try:
                return getattr(shard, kind.live)(*args)
            except StorageBrownout:
                # The breaker tripped mid-query: answer from the snapshot
                # pin instead of surfacing the brownout to the client.
                if not allow_degraded:
                    raise
        elif not allow_degraded:
            raise StorageBrownout(f"shared/shard{shard_id}", 0)
        shard.enter_degraded_mode()
        answer = getattr(shard, kind.live)(*args)  # a refusal counts nothing
        self._qos_io.qos.degraded_reads += 1
        return answer

    @staticmethod
    def _newest_record(
        parts: Sequence[Optional[Record]], _overlap: bool = True
    ) -> Optional[Record]:
        """Double-read merge for points: newest ``beginTS`` wins (the
        first holder asked -- the fresh-write one -- on a tie)."""
        found = [record for record in parts if record is not None]
        return max(found, key=lambda record: record.begin_ts, default=None)

    def _merge_rows(
        self, parts: Sequence[Sequence[TaggedRow]], overlap: bool = True
    ) -> List[Row]:
        """The output sort is by (row values, primary key); between
        disjoint shards that is simply the sorted rows."""
        if overlap:
            return [row for _, _, row in self._merge_tagged(parts)]
        return sorted([row for part in parts for _, _, row in part])

    def scatter_stats(self) -> Dict[str, int]:
        """Typed scatter-gather pruning counters (ISSUE 10)."""
        return dict(self._scatter_stats)

    def _prune_scatter(
        self, shard_ids: List[int], query: Query, binding: Binding
    ) -> List[int]:
        """Drop shards whose synopses prove the query cannot match there
        (:meth:`WildfireShard.cannot_match`): they read what the shard's
        own planner reads, so a pruned shard is one whose current version
        would have answered with zero rows -- pure fan-out cost."""
        shards = self.shards
        kept = [
            shard_id for shard_id in shard_ids
            if not shards[shard_id].cannot_match(query, binding)
        ]
        stats = self._scatter_stats
        stats["scatter_queries"] += 1
        stats["shards_considered"] += len(shard_ids)
        stats["shards_pruned"] += len(shard_ids) - len(kept)
        stats["shards_contacted"] += len(kept)
        return kept

    @staticmethod
    def _merge_tagged(parts: Sequence[Sequence[TaggedRow]]) -> List[TaggedRow]:
        """Newest-beginTS-wins per primary key, then the output sort.

        Each shard already deduplicated its own versions; across shards
        a migration window's double-read may answer the same key from
        both the source and a successor (copied rows tie on beginTS and
        are identical; post-cutover writes win by a larger beginTS).
        """
        best: Dict[Row, Tuple[int, Row]] = {}
        for part in parts:
            for pk, begin_ts, row in part:
                held = best.get(pk)
                if held is None or begin_ts > held[0]:
                    best[pk] = (begin_ts, row)
        return sorted(
            ((pk, ts, row) for pk, (ts, row) in best.items()),
            key=lambda item: (item[2], item[0]),
        )

    # -- observability ----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cluster stats with a *complete* ledger rollup (ISSUE 8).

        ``io`` folds the cluster's own ledger plus every shard's hierarchy
        ledger through :meth:`~repro.storage.metrics.IOStats.merge`, so
        sub-ledger counters (per-intent cache paths, fault/retry counts,
        epoch lifecycle, decode work) aggregate.  ``total_entries`` counts
        live shards only: a retired source's copied entries would
        otherwise be double-counted.
        """
        per_shard = [shard.stats() for shard in self.shards]
        merged = IOStats()
        merged.merge(self._qos_io)
        for shard in self.shards:
            merged.merge(shard.hierarchy.stats)
        live = self.live_shard_ids()
        return {
            "num_shards": len(live),
            "routing_epoch": self._maps.current.epoch,
            "retired_shards": sorted(self._retired),
            "total_entries": sum(
                per_shard[i]["index"].total_entries for i in live  # type: ignore[index]
            ),
            "per_shard": per_shard,
            "qos": merged.qos.snapshot(),
            "scatter": self.scatter_stats(),
            "io": merged,
        }

    def crash_and_recover_shard(self, shard_id: int):
        """Crash one shard's node; the rest keep serving (independence)."""
        shard = self.shards[shard_id]
        # A degraded-mode pin references pre-crash run objects; drop it
        # before the local tiers are wiped and the run lists rebuilt.
        shard.exit_degraded_mode()
        return shard.crash_and_recover()


__all__ = ["ADMISSION_TIER", "ShardedTable"]
