"""Cluster overload protection end to end (ISSUE 7).

ShardedTable + FaultyTier: admission sheds under spikes, the breaker
trips during shared-tier outages, queries degrade to the pinned snapshot
(correct, stale-bounded answers -- never errors), maintenance throttles
and recovers, and scatter-gather failures surface as typed
partial-result errors.  Everything is counter-asserted on the cluster
QosStats ledger and runs on simulated clocks only.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.planner import Query
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState
from repro.qos.errors import Overloaded, PartialResultError, QosError
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.storage.retry import TransientIOError
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema


def make_schema():
    return TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )


def make_faulty_table(num_shards=2, qos=None, seed=0):
    """A ShardedTable whose shards run on FaultyTier shared storage."""
    tiers = {}

    def factory(shard_id):
        stats = IOStats()
        tier = FaultyTier(
            FaultPlan(seed=seed + shard_id), run_prefix="iot", stats=stats
        )
        tiers[shard_id] = tier
        return StorageHierarchy(shared=tier, stats=stats)

    table = ShardedTable(
        make_schema(),
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
        qos=qos,
        hierarchy_factory=factory,
    )
    return table, tiers


def generous_qos(**overrides):
    """Admission that never sheds, so tests isolate the breaker path.

    ``open_ns`` must exceed the retry loop's accumulated backoff (1+2+4
    simulated ms) or the breaker would lapse to half-open between two
    attempts of the same operation.
    """
    defaults = dict(
        rate_per_sim_s=1e12,
        burst=1e6,
        breaker=BreakerConfig(failure_threshold=3, open_ns=8_000_000),
        release_after=1,
    )
    defaults.update(overrides)
    return QosConfig(**defaults)


class TestAdmissionInFront:
    def test_queries_counted_and_unaffected_when_calm(self):
        table, _ = make_faulty_table(qos=generous_qos())
        table.ingest([(d, 1, d * 10) for d in range(8)])
        table.tick()
        for d in range(8):
            assert table.point_query((d,), (1,)).values == (d, 1, d * 10)
        stats = table.qos_stats()
        assert stats.admitted == 1 + 8  # the ingest batch + 8 queries
        assert stats.shed == 0

    def test_spike_sheds_with_typed_error(self):
        qos = QosConfig(
            rate_per_sim_s=1_000_000.0,  # 1 op per simulated us
            burst=2.0,
            max_queue_ns=3_000,
            deadline_ns=1_000_000,
        )
        table, _ = make_faulty_table(qos=qos)
        table.ingest([(d, 1, d) for d in range(8)])
        table.tick()
        outcomes = []
        for _ in range(12):  # no advance(): a pure arrival spike
            try:
                table.point_query((1,), (1,))
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")
        stats = table.qos_stats()
        assert "shed" in outcomes
        assert stats.shed == outcomes.count("shed")
        assert stats.admitted + stats.shed == stats.offered
        assert stats.queue_sim_ns > 0
        # Offered load spread out again: the bucket refills and admits.
        table.advance_clock(100_000_000)
        assert table.point_query((1,), (1,)) is not None

    def test_ingest_passes_admission(self):
        qos = QosConfig(rate_per_sim_s=1_000_000.0, burst=1.0, max_queue_ns=0)
        table, _ = make_faulty_table(qos=qos)
        table.ingest([(1, 1, 1)])
        with pytest.raises(Overloaded):
            table.ingest([(2, 1, 2)])
        assert table.qos_stats().shed == 1


class TestBreakerAndDegradedReads:
    def crash_and_brownout(self, table, tiers, victim):
        """Outage on one shard's shared tier; queries on it must miss
        the local cache, so trip the breaker with a maintenance write."""
        tiers[victim].set_outage(True)
        # Ingest to the victim and tick: its groom hits shared storage,
        # fails through the retry loop, and trips the breaker mid-loop.
        device = next(
            d for d in range(100) if table.shard_of_row((d, 0, 0)) == victim
        )
        table.ingest([(device, 99, 999)])
        table.tick()

    def test_brownout_degrades_instead_of_erroring(self):
        table, tiers = make_faulty_table(qos=generous_qos())
        table.ingest([(d, 1, d * 10) for d in range(16)])
        table.run_cycles(2)
        baseline = {d: table.point_query((d,), (1,)).values for d in range(16)}
        victim = table.shard_of_row((0, 0, 0))
        self.crash_and_brownout(table, tiers, victim)
        assert table.breaker(victim).state() is BreakerState.OPEN

        # Every key still answers -- victim-shard keys from the pinned
        # snapshot, the rest normally -- with zero query errors.
        for d in range(16):
            assert table.point_query((d,), (1,)).values == baseline[d]
        stats = table.qos_stats()
        assert stats.breaker_opens == 1
        assert stats.degraded_reads > 0
        assert table.shards[victim].degraded_pin is not None

    def test_degraded_range_query(self):
        table, tiers = make_faulty_table(qos=generous_qos())
        device = 3
        table.ingest([(device, m, m) for m in range(10)])
        table.run_cycles(2)
        victim = table.shard_of_row((device, 0, 0))
        self.crash_and_brownout(table, tiers, victim)
        rows = table.query(
            Query(equalities=(("device", device),), ranges=(("msg", 2, 5),))
        )
        assert [row[1] for row in rows] == [2, 3, 4, 5]
        assert table.qos_stats().degraded_reads > 0

    def test_maintenance_throttles_while_breaker_open(self):
        table, tiers = make_faulty_table(qos=generous_qos())
        table.ingest([(d, 1, d) for d in range(16)])
        table.run_cycles(2)
        victim = table.shard_of_row((0, 0, 0))
        self.crash_and_brownout(table, tiers, victim)
        before = table.qos_stats().snapshot()
        table.tick()  # all shards consult the gate: breaker open -> skip
        delta = table.qos_stats().diff(before)
        assert delta.maintenance_throttled > 0
        assert delta.maintenance_cycles == 0
        totals = table.qos_stats()
        assert totals.throttle_events == totals.throttle_releases + 1  # throttled

    def test_recovery_closes_breaker_and_reintegrates(self):
        table, tiers = make_faulty_table(qos=generous_qos())
        table.ingest([(d, 1, d * 10) for d in range(16)])
        table.run_cycles(2)
        victim = table.shard_of_row((0, 0, 0))
        victim_device = next(
            d for d in range(16) if table.shard_of_row((d, 0, 0)) == victim
        )
        self.crash_and_brownout(table, tiers, victim)
        assert table.shards[victim].committed_log.pending_rows() > 0

        # Storage heals; idle simulated time passes (the arrival clock
        # feeds the breaker clock) until the open window lapses.
        tiers[victim].set_outage(False)
        table.advance_clock(generous_qos().breaker.open_ns)
        assert table.breaker(victim).state() is BreakerState.HALF_OPEN
        # The first healthy query exits degraded mode ...
        assert table.point_query((victim_device,), (1,)) is not None
        assert table.shards[victim].degraded_pin is None
        # ... and released maintenance re-grooms the requeued rows:
        # half-open probe writes succeed and close the breaker.
        for _ in range(4):
            table.tick()
        assert table.breaker(victim).state() is BreakerState.CLOSED
        stats = table.qos_stats()
        assert stats.breaker_closes == 1
        assert stats.throttle_releases == 1
        assert table.point_query((victim_device,), (99,)).values == (
            victim_device, 99, 999,
        )

    def test_identical_runs_identical_qos_counters(self):
        def drive():
            table, tiers = make_faulty_table(qos=generous_qos())
            table.ingest([(d, 1, d * 10) for d in range(16)])
            table.run_cycles(2)
            victim = table.shard_of_row((0, 0, 0))
            self.crash_and_brownout(table, tiers, victim)
            for d in range(16):
                table.point_query((d,), (1,))
            tiers[victim].set_outage(False)
            table.advance_clock(generous_qos().breaker.open_ns)
            for _ in range(4):
                table.tick()
            return table.qos_stats().snapshot(), table.sim_now()

        assert drive() == drive()


def make_scatter_table(num_shards=2, seed=0):
    """Sharded on ``device`` but indexed by ``msg`` equality, so a query
    binding only ``msg`` cannot route and must scatter-gather."""
    tiers = {}

    def factory(shard_id):
        stats = IOStats()
        tier = FaultyTier(
            FaultPlan(seed=seed + shard_id), run_prefix="iot", stats=stats
        )
        tiers[shard_id] = tier
        return StorageHierarchy(shared=tier, stats=stats)

    table = ShardedTable(
        make_schema(),
        IndexSpec(("msg",), ("device",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
        hierarchy_factory=factory,
    )
    return table, tiers


class TestPartialResults:
    def wipe_local(self, shard):
        """Lose the shard's local tiers so queries must touch shared."""
        with shard.index.pin_snapshot() as pin:
            for run in pin.runs:
                run.drop_decode_cache()
        shard.hierarchy.crash_local_tiers()
        shard.catalog.forget_decoded()

    def test_scatter_gather_names_failed_shard(self):
        table, tiers = make_scatter_table(num_shards=2)
        table.ingest([(d, 1, d) for d in range(16)])
        table.run_cycles(2)
        victim = 0
        self.wipe_local(table.shards[victim])
        tiers[victim].set_outage(True)
        # Sharding key (device) unbound -> scatter across both shards.
        with pytest.raises(PartialResultError) as exc_info:
            table.query(Query(equalities=(("msg", 1),)))
        error = exc_info.value
        assert error.failed_shards == (victim,)
        assert isinstance(error.cause, TransientIOError)
        assert isinstance(error, QosError)
        # The surviving shard's rows rode along with the error.
        assert len(error.partial) > 0
        survivors = {row[0] for row in error.partial}
        assert all(table.shard_of_row((d, 1, 0)) == 1 for d in survivors)

    def test_gather_clean_when_all_shards_healthy(self):
        table, _ = make_scatter_table(num_shards=2)
        table.ingest([(d, 1, d) for d in range(16)])
        table.run_cycles(2)
        rows = table.query(Query(equalities=(("msg", 1),)))
        assert len(rows) == 16
        assert [row[0] for row in rows] == list(range(16))
