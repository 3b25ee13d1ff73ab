"""Qos integration of online shard migration, both directions (ISSUES 8, 10).

Every case runs for a split *and* for a merge -- one state machine, one
contract:

* the migration respects the overload stack -- maintenance backpressure
  or an open source breaker aborts it *before* its write cutover with a
  typed :class:`SplitAborted` / :class:`MergeAborted`, leaving routing,
  data and clocks untouched;
* inside the migration window the fresh-write holder (a split's
  successor, a merge's fused target) is not allowed to answer degraded
  (a snapshot-pinned answer could silently miss freshly cut-over
  writes), so its open breaker surfaces as a
  :class:`PartialResultError` carrying the partial answer *and the
  serving routing epoch* -- after roll-forward recovery it owns the slot
  alone and may serve degraded like any other shard;
* the table holds one in-flight slot: a second ``begin_*`` is refused
  while it is occupied, and stepping or recovering an empty one is a
  typed error / a no-op.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.faults.crash import CrashSchedule, SimulatedCrash, install_crash_schedule
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.planner import Query
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState
from repro.qos.errors import PartialResultError
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.migration import MergeAborted, MigrationError, SplitAborted
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = 16


def generous_qos(**overrides):
    """Admission that never sheds; a breaker that stays open for ages."""
    defaults = dict(
        rate_per_sim_s=1e12,
        burst=1e6,
        breaker=BreakerConfig(failure_threshold=3, open_ns=10**15),
        release_after=1,
    )
    defaults.update(overrides)
    return QosConfig(**defaults)


def make_qos_table(num_shards=1, qos=None, seed=0):
    def factory(shard_id):
        stats = IOStats()
        tier = FaultyTier(
            FaultPlan(seed=seed + shard_id), run_prefix="iot", stats=stats
        )
        return StorageHierarchy(shared=tier, stats=stats)

    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
        qos=qos if qos is not None else generous_qos(),
        hierarchy_factory=factory,
    )


def warm(table):
    table.ingest([(d, 1, d * 10) for d in range(DEVICES)])
    table.run_cycles(4)


def trip(breaker):
    for _ in range(breaker.config.failure_threshold):
        breaker.record_failure()
    assert breaker.state() is BreakerState.OPEN


DIRECTIONS = ("split", "merge")
ABORTED = {"split": SplitAborted, "merge": MergeAborted}


def ready(direction):
    """A warmed table one call away from migrating in ``direction``:
    ``(table, source shard ids)``.  The merge case has already split."""
    table = make_qos_table()
    warm(table)
    if direction == "split":
        return table, (0,)
    return table, table.split_shard(0)["successors"]


def migrate(table, direction, sources):
    run = table.split_shard if direction == "split" else table.merge_shards
    return run(*sources)


def begin(table, direction, sources):
    start = table.begin_split if direction == "split" else table.begin_merge
    return start(*sources)


@pytest.mark.parametrize("direction", DIRECTIONS)
class TestGate:
    def test_open_source_breaker_aborts_before_cutover(self, direction):
        table, sources = ready(direction)
        epoch, live = table.routing_epoch(), table.live_shard_ids()
        trip(table.breaker(sources[-1]))
        with pytest.raises(ABORTED[direction]):
            migrate(table, direction, sources)
        # Nothing happened: fully-old routing, no targets, retryable.
        assert table.routing_epoch() == epoch
        assert table.live_shard_ids() == live
        # The abort cleared the in-flight state: recovery is a no-op ...
        assert table.recover_migration()["resumed"] is False
        # ... and once the breaker is happy again the same call goes
        # through (the gate is advisory backpressure, not a veto forever).
        table.breaker(sources[-1]).recorded_state = BreakerState.CLOSED
        assert migrate(table, direction, sources)["phase"] == "done"

    def test_maintenance_backpressure_aborts_before_cutover(self, direction):
        table, sources = ready(direction)
        epoch = table.routing_epoch()
        # Any open breaker throttles the scheduler cluster-wide.
        trip(table.breaker(sources[0]))
        assert table.scheduler.allow_maintenance() is False
        with pytest.raises(ABORTED[direction]):
            migrate(table, direction, sources)
        assert table.routing_epoch() == epoch


@pytest.mark.parametrize("direction", DIRECTIONS)
class TestPartialResultsInWindow:
    def crash_into_migration_window(self, table, direction, sources):
        """Park the table mid-migration: copied, final map unpublished.
        Returns the (window) epoch it is stuck on."""
        epoch = table.routing_epoch()
        plan = FaultPlan(
            seed=0, crash_triggers={f"{direction}.pre_publish": frozenset({1})}
        )
        with install_crash_schedule(CrashSchedule(plan.crash_triggers)):
            with pytest.raises(SimulatedCrash):
                migrate(table, direction, sources)
        assert table.routing_epoch() == epoch + 1
        return epoch + 1

    def fresh_write_holder(self, table, device):
        key_hash = table.key_hash((device,))
        route = table.maps.current.route_of(key_hash)
        assert route.state in ("migrating", "merging")
        holder = route.write_shard(key_hash)
        assert holder in route.fresh_write_shards()
        return holder

    def test_fresh_holder_brownout_surfaces_epoch_tagged_partial(self, direction):
        table, sources = ready(direction)
        window_epoch = self.crash_into_migration_window(table, direction, sources)

        device = 0
        holder = self.fresh_write_holder(table, device)
        trip(table.breaker(holder))

        with pytest.raises(PartialResultError) as exc_info:
            table.point_query((device,), (1,))
        error = exc_info.value
        assert error.failed_shards == (holder,)
        assert error.epoch == window_epoch  # the serving routing epoch
        # The old holder's authoritative answer rode along.
        assert len(error.partial) == 1
        assert error.partial[0].values == (device, 1, device * 10)
        # Typed range reads through the same window are tagged identically.
        with pytest.raises(PartialResultError) as exc_info:
            table.query(Query(equalities=(("device", device),)))
        assert exc_info.value.epoch == window_epoch
        assert exc_info.value.failed_shards == (holder,)
        # No degraded read was attempted for the fresh-write holder: its
        # snapshot could miss post-cutover writes, so partials are the
        # contract.
        assert table.qos_stats().degraded_reads == 0

    def test_after_rollforward_fresh_holder_serves_degraded(self, direction):
        table, sources = ready(direction)
        window_epoch = self.crash_into_migration_window(table, direction, sources)
        device = 0
        holder = self.fresh_write_holder(table, device)
        trip(table.breaker(holder))

        outcome = table.recover_migration()
        assert outcome["outcome"] == "rolled_forward"
        assert table.routing_epoch() == window_epoch + 1

        # The holder now owns the slot alone; with its breaker still
        # open it degrades to the pinned snapshot (which holds the copied
        # data) instead of erroring -- the normal ISSUE 7 contract.
        record = table.point_query((device,), (1,))
        assert record is not None and record.values == (device, 1, device * 10)
        assert table.qos_stats().degraded_reads > 0


class TestOneInFlightSlot:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_second_begin_while_in_flight_is_refused(self, direction):
        table, sources = ready(direction)
        summary = begin(table, direction, sources)
        epoch = table.routing_epoch()
        # Whatever is asked for next -- either direction -- is refused.
        for other, ids in (("split", sources[:1]), ("merge", (sources * 2)[:2])):
            with pytest.raises(MigrationError, match="already in flight"):
                begin(table, other, ids)
        # The refusal touched nothing: the parked migration pumps on.
        assert table.routing_epoch() == epoch
        while summary["phase"] != "done":
            summary = table.migration_step(budget=4)
        assert table.routing_epoch() == epoch + 1
        assert table.recover_migration()["resumed"] is False

    def test_nothing_in_flight(self):
        table, _ = ready("split")
        with pytest.raises(MigrationError, match="no migration is in flight"):
            table.migration_step()
        assert table.recover_migration() == {"resumed": False, "epoch": 0}
        assert table.routing_epoch() == 0
