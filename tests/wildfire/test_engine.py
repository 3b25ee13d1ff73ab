"""End-to-end shard tests: MVCC semantics, time travel, daemons, recovery."""

import random
import threading
import time

import pytest

from repro.core.definition import ColumnSpec
from repro.core.index import UmziConfig
from repro.core.levels import LevelConfig
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.planner import Query
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.storage.retry import TransientIOError
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema
from tests.conftest import needs_merge, pending_psns

TWO_SECONDARIES = {
    "by_reading": IndexSpec(sort_columns=("reading",)),
    "by_msg": IndexSpec(equality_columns=("msg",)),
}
SMALL_LEVELS = UmziConfig(levels=LevelConfig(
    groomed_levels=3, post_groomed_levels=2, max_runs_per_level=2, size_ratio=2,
))


class CountingGate:
    """A scheduler stub: counts its gate decisions, answers ``allow``."""

    def __init__(self, allow=True):
        self.allow = allow
        self.calls = 0

    def allow_maintenance(self):
        self.calls += 1
        return self.allow


def wait_until(condition, timeout_s=5.0):
    deadline = time.time() + timeout_s
    while not condition() and time.time() < deadline:
        time.sleep(0.01)
    return condition()


def make_shard(hierarchy=None, **config_overrides):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return WildfireShard(
        schema, spec, hierarchy=hierarchy, config=ShardConfig(**config_overrides)
    )


def device_range(device, low=None, high=None, **options):
    """A range read of one device's messages, as a typed query."""
    return Query(
        equalities=(("device", device),), ranges=(("msg", low, high),), **options
    )


class TestUpsertSemantics:
    def test_last_writer_wins_across_grooms(self):
        shard = make_shard(post_groom_every=3)
        shard.ingest([(1, 1, 100)])
        shard.tick()
        shard.ingest([(1, 1, 200)])
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 200)

    def test_distinct_keys_coexist(self):
        shard = make_shard()
        shard.ingest([(1, m, m) for m in range(5)])
        shard.tick()
        rows = shard.query(device_range(1, 0, 4))
        assert len(rows) == 5

    def test_typed_range_read_returns_rows(self):
        shard = make_shard()
        shard.ingest([(1, m, m * 10) for m in range(5)])
        shard.tick()
        rows = shard.query(device_range(1, 1, 3))
        assert [row[2] for row in rows] == [10, 20, 30]

    def test_missing_key(self):
        shard = make_shard()
        shard.ingest([(1, 1, 1)])
        shard.tick()
        assert shard.point_query((9,), (9,)) is None


class TestSnapshotIsolation:
    def test_snapshot_repeatable_across_updates(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(1, 1, 100)])
        shard.tick()
        ts = shard.current_snapshot_ts()
        shard.ingest([(1, 1, 200)])
        shard.run_cycles(4)
        assert shard.point_query((1,), (1,), query_ts=ts).values == (1, 1, 100)
        assert shard.point_query((1,), (1,)).values == (1, 1, 200)

    def test_a_groom_is_readable_only_once_every_index_holds_it(self):
        # A read at the snapshot timestamp a running groom shows must
        # answer as the same read does after the groom: the snapshot may
        # not cover the groom's rows before its runs are published.
        shard = make_shard(secondary_indexes=TWO_SECONDARIES)
        shard.ingest([(2, 1, 10)])
        shard.tick()
        shard.ingest([(4, 1, 20)])
        seen = []
        build = shard.indexes.build_groomed_runs

        def mid_groom(*args):
            ts = shard.current_snapshot_ts()
            seen.append((ts, shard.point_query((4,), (1,), query_ts=ts)))
            return build(*args)

        shard.indexes.build_groomed_runs = mid_groom
        shard.tick()
        [(ts, during)] = seen
        assert during == shard.point_query((4,), (1,), query_ts=ts)
        assert shard.point_query((4,), (1,)).values == (4, 1, 20)

    def test_version_chain_and_end_ts(self):
        shard = make_shard(post_groom_every=1)
        for value in (100, 200, 300):
            shard.ingest([(1, 1, value)])
            shard.run_cycles(2)
        versions = shard.time_travel((1,), (1,), shard.current_snapshot_ts())
        assert [v.values[2] for v in versions] == [300, 200, 100]
        assert versions[0].end_ts is None
        assert versions[1].end_ts == versions[0].begin_ts
        assert versions[2].end_ts == versions[1].begin_ts

    def test_time_travel_walks_a_long_chain_to_its_end(self):
        shard = make_shard(post_groom_every=1)
        for value in range(24):
            shard.ingest([(1, 1, value)])
            shard.run_cycles(2)
        versions = shard.time_travel((1,), (1,), shard.current_snapshot_ts())
        assert [v.values[2] for v in versions] == list(range(23, -1, -1))
        assert versions[-1].prev_rid is None
        assert all(
            older.end_ts == newer.begin_ts
            for newer, older in zip(versions, versions[1:])
        )

    def test_batch_lookup(self):
        shard = make_shard()
        shard.ingest([(d, 1, d) for d in range(10)])
        shard.tick()
        keys = [((d,), (1,)) for d in range(10)]
        results = shard.index_batch_lookup(keys)
        assert all(r is not None for r in results)
        assert [r.include_values[0] for r in results] == list(range(10))


class TestDegradedMode:
    def test_the_live_doors_read_the_pinned_snapshot_while_degraded(self):
        """Degraded mode is a state of ``point_query`` / ``query``: while
        the pin is held they answer from the pinned version, never
        fresher, and from the current one again once it is released."""
        shard = make_shard()
        shard.ingest([(1, 1, 10)])
        shard.tick()
        shard.enter_degraded_mode()
        shard.ingest([(1, 1, 11), (1, 2, 20)])
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 10)
        assert shard.point_query((1,), (2,)) is None
        assert shard.query(device_range(1)) == [(1, 1, 10)]
        shard.exit_degraded_mode()
        assert shard.point_query((1,), (1,)).values == (1, 1, 11)
        assert shard.query(device_range(1)) == [(1, 1, 11), (1, 2, 20)]


class TestDeterministicDriver:
    def test_run_cycles_with_ingest_fn(self):
        shard = make_shard(post_groom_every=2)
        rng = random.Random(1)
        reports = []
        for cycle in range(1, 7):
            shard.ingest([(rng.randrange(5), cycle * 10 + i, 0) for i in range(3)])
            reports.append(shard.tick())
        assert len(reports) == 6
        assert shard.post_groomer.max_psn >= 2
        assert shard.index.indexed_psn == shard.post_groomer.max_psn

    def test_stats_snapshot(self):
        shard = make_shard()
        shard.ingest([(1, 1, 1)])
        shard.tick()
        stats = shard.stats()
        assert stats["cycle"] == 1
        assert stats["live_rows"] == 0  # drained by groom
        assert stats["index"].total_entries == 1

    def test_one_gate_decision_per_admitted_tick(self):
        shard = make_shard(post_groom_every=1, secondary_indexes=TWO_SECONDARIES)
        gate = CountingGate()
        shard.attach_scheduler(gate)
        shard.ingest([(d, 1, d) for d in range(4)])
        report = shard.tick()
        assert "throttled" not in report and report["evolved"]
        assert gate.calls == 1


class TestThreadedDaemons:
    def test_daemons_process_ingest(self):
        shard = make_shard(post_groom_every=2)
        shard.start_daemons(groom_interval_s=0.005)
        try:
            for batch in range(10):
                shard.ingest([(batch % 3, batch, batch)])
                time.sleep(0.01)
            deadline = time.time() + 5
            while shard.committed_log.pending_rows() and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
        finally:
            shard.stop_daemons()
        assert shard.groomer.grooms_done > 0
        assert shard.point_query((0,), (0,)) is not None

    def test_daemon_evolves_and_merges_every_index(self):
        shard = make_shard(
            post_groom_every=2, umzi=SMALL_LEVELS,
            secondary_indexes=TWO_SECONDARIES,
        )
        indexes = [si.index for si in shard.indexes.all()]
        shard.start_daemons(groom_interval_s=0.002)
        try:
            for batch in range(12):
                shard.ingest([(d, batch, d + batch) for d in range(4)])
                time.sleep(0.005)

            def settled():
                return (
                    shard.committed_log.pending_rows() == 0
                    and shard.post_groomer.max_psn >= 2
                    and pending_psns(shard) == 0
                    and not any(needs_merge(index) for index in indexes)
                )

            assert wait_until(settled)
        finally:
            shard.stop_daemons()
        assert shard.index.indexed_psn == shard.post_groomer.max_psn
        assert not any(needs_merge(index) for index in indexes)
        assert shard.point_query((3,), (11,)).values == (3, 11, 14)

    def test_one_maintenance_thread_per_running_shard(self):
        shards = [
            make_shard(secondary_indexes=TWO_SECONDARIES) for _ in range(2)
        ]
        before = set(threading.enumerate())
        for shard in shards:
            shard.start_daemons(groom_interval_s=0.002)
        try:
            started = set(threading.enumerate()) - before
            assert len(started) == len(shards)
            assert {thread.name for thread in started} == {"wildfire-maintenance"}
        finally:
            for shard in shards:
                shard.stop_daemons()
        assert not any(thread.is_alive() for thread in started)

    def test_second_start_is_refused(self):
        shard = make_shard()
        shard.start_daemons(groom_interval_s=0.002)
        try:
            with pytest.raises(RuntimeError):
                shard.start_daemons(groom_interval_s=0.002)
        finally:
            shard.stop_daemons()

    def test_stop_is_idempotent(self):
        shard = make_shard()
        shard.stop_daemons()  # never started
        shard.start_daemons(groom_interval_s=0.002)
        shard.stop_daemons()
        shard.stop_daemons()
        assert not shard.daemons_running

    def test_daemon_survives_a_transient_shared_tier_error(self):
        stats = IOStats()
        tier = FaultyTier(FaultPlan(seed=0), run_prefix="umzi-run", stats=stats)
        shard = make_shard(
            hierarchy=StorageHierarchy(shared=tier, stats=stats),
            post_groom_every=2,
        )
        shard.attach_scheduler(CountingGate())
        shard.ingest([(d, 1, d) for d in range(4)])
        shard.groomer.groom()
        shard.post_groomer.post_groom()
        assert pending_psns(shard) == 1
        tier.set_outage(True)
        shard.ingest([(d, 2, d) for d in range(4)])
        shard.start_daemons(groom_interval_s=0.002)
        try:
            time.sleep(0.2)
            tier.set_outage(False)
            assert wait_until(
                lambda: shard.committed_log.pending_rows() == 0
                and shard.post_groomer.max_psn >= 2
                and pending_psns(shard) == 0
            )
            assert shard.daemons_running
        finally:
            shard.stop_daemons()
        assert stats.faults.write_giveups > 0  # the outage did hit maintenance
        assert shard.index.indexed_psn == shard.post_groomer.max_psn
        for d in range(4):
            assert shard.point_query((d,), (2,)).values == (d, 2, d)

    def test_unsupervised_daemon_error_is_visible(self, monkeypatch):
        uncaught = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: uncaught.append(args.exc_type)
        )
        stats = IOStats()
        tier = FaultyTier(FaultPlan(seed=0), run_prefix="umzi-run", stats=stats)
        shard = make_shard(hierarchy=StorageHierarchy(shared=tier, stats=stats))
        tier.set_outage(True)
        shard.ingest([(d, 1, d) for d in range(4)])
        shard.start_daemons(groom_interval_s=0.002)
        try:
            # No scheduler: tick's error propagates and ends the thread.
            assert wait_until(lambda: not shard.daemons_running)
            assert uncaught == [TransientIOError]
            tier.set_outage(False)
            shard.start_daemons(groom_interval_s=0.002)
            assert wait_until(lambda: shard.committed_log.pending_rows() == 0)
            assert shard.daemons_running
        finally:
            shard.stop_daemons()
        assert not shard.daemons_running

    def test_closed_gate_leaves_every_row_pending(self):
        shard = make_shard(post_groom_every=1)
        gate = CountingGate(allow=False)
        shard.attach_scheduler(gate)
        shard.ingest([(d, 1, d) for d in range(4)])
        shard.start_daemons(groom_interval_s=0.002)
        try:
            assert wait_until(lambda: gate.calls >= 10)
        finally:
            shard.stop_daemons()
        assert shard.groomer.grooms_done == 0
        assert shard.committed_log.pending_rows() == 4
        assert shard.post_groomer.max_psn == 0


class TestCrashRecovery:
    def test_engine_level_recovery(self):
        shard = make_shard(post_groom_every=2)
        shard.ingest([(d, 1, d * 10) for d in range(8)])
        shard.run_cycles(4)
        expected = {d: shard.point_query((d,), (1,)).values for d in range(8)}
        shard.crash_and_recover()
        for d in range(8):
            assert shard.point_query((d,), (1,)).values == expected[d]
