"""Oracle-differential tests for online shard merge (ISSUE 10).

Two clusters run the *identical* seeded workload: the **merge arm**
splits its only shard and then merges the two successors back between
workload phases; the **oracle** never reorganizes.  The claim is the
paper's: clients cannot tell.  With no writes inside the split/merge
window, the round trip is **byte identical** end to end -- the split
copy is a verbatim ``(sort_key, blob)`` partition, the merge copy is a
verbatim interleave of the two disjoint halves, the clock handoff
restores exactly the source's HLC state (max of two untouched copies),
and the fused target's block allocator resumes at the same watermark
the oracle's is at -- so every later groom, post-groom and evolve makes
byte-identical decisions.

With writes landing *during* the split window (routed across both
successors), the ``order`` component of their ``beginTS`` legitimately
diverges from the single-log oracle; there the suite asserts value
identity everywhere, byte identity AS-OF the pre-split snapshot, and
byte identity for devices untouched since phase A.

The crash matrix replays the differential through every ``merge.*``
crash point: recovery must land on the fully-split or fully-merged
routing (never torn), be idempotent, and still answer
oracle-identically.
"""

import random

import pytest

from repro.core.definition import ColumnSpec
from repro.faults.crash import CrashSchedule, SimulatedCrash, install_crash_schedule
from repro.faults.plan import FaultPlan
from tests.fault_plans import describe_plan
from repro.planner import Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import assert_lifecycles_quiescent

pytestmark = pytest.mark.timeout(300)

SEEDS = range(14)
CRASH_SITES = (
    "merge.pre_copy",
    "merge.mid_copy",
    "merge.pre_publish",
    "merge.post_publish",
)
CRASH_SEEDS = range(5)
PROBE_MSG = 99  # never written: both arms must answer None


def make_table():
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
        num_shards=1,
        config=ShardConfig(post_groom_every=1),
    )


def workload(seed, pool=None):
    """Seeded batches of upserts (inserts + same-key updates) per phase."""
    rng = random.Random(seed)
    if pool is None:
        pool = list(range(rng.randrange(6, 12)))

    def phase(batches):
        out = []
        for _ in range(batches):
            out.append(
                [
                    (
                        rng.choice(pool),
                        rng.randrange(1, 5),
                        rng.randrange(10_000),
                    )
                    for _ in range(rng.randrange(1, 6))
                ]
            )
        return out

    return pool, phase(rng.randrange(3, 7)), phase(rng.randrange(3, 7))


def apply_phase(table, batches):
    """Identical cadence on every arm: ingest a batch, tick twice."""
    for batch in batches:
        table.ingest(batch)
        table.run_cycles(2)
    table.run_cycles(4)
    for shard_id in table.live_shard_ids():
        shard = table.shards[shard_id]
        assert shard.committed_log.pending_rows() == 0
        assert shard.index.indexed_psn >= shard.post_groomer.max_psn


def keys_of(*phases):
    keys = set()
    for batches in phases:
        for batch in batches:
            for device, msg, _ in batch:
                keys.add((device, msg))
    return keys


def blob_answers(table, devices, keys, query_ts=None, with_end_ts=True):
    """State at a snapshot: each device's full rows + full point records."""
    scans = {
        d: tuple(table.query(
            Query(equalities=(("device", d),), query_ts=query_ts)
        ))
        for d in devices
    }
    points = {}
    for device, msg in sorted(keys):
        record = table.point_query((device,), (msg,), query_ts=query_ts)
        if record is None:
            points[(device, msg)] = None
        elif with_end_ts:
            points[(device, msg)] = (record.values, record.begin_ts, record.end_ts)
        else:
            points[(device, msg)] = (record.values, record.begin_ts)
    return scans, points


def value_answers(table, devices, keys):
    """Value-level state: what a client can observe, timestamps aside."""
    scans = {
        d: tuple(table.query(
            Query(equalities=(("device", d),), projection=("msg",))
        ))
        for d in devices
    }
    points = {}
    for device, msg in sorted(keys):
        record = table.point_query((device,), (msg,))
        points[(device, msg)] = None if record is None else record.values
    return scans, points


def split_then_merge(table):
    """The round trip under test; returns the fused target's shard id."""
    summary = table.split_shard(0)
    assert summary["phase"] == "done"
    assert table.routing_epoch() == 2
    assert table.live_shard_ids() == [1, 2]
    summary = table.merge_shards(1, 2)
    assert summary["phase"] == "done"
    assert table.routing_epoch() == 4
    assert table.live_shard_ids() == [3]
    return 3


def assert_window_differential(arm, oracle, pool, window_phases, snapshot_ts):
    """The post-drain differential when writes landed inside the window."""
    all_phases = window_phases["all"]
    all_keys = keys_of(*all_phases) | {(d, PROBE_MSG) for d in pool}
    # Values: every answer a client can get agrees, reorganized or not.
    assert value_answers(arm, pool, all_keys) == value_answers(
        oracle, pool, all_keys
    )
    # AS-OF the pre-split snapshot: byte-identical history.
    assert blob_answers(
        arm, pool, all_keys, query_ts=snapshot_ts, with_end_ts=False
    ) == blob_answers(
        oracle, pool, all_keys, query_ts=snapshot_ts, with_end_ts=False
    )
    # Devices never rewritten after phase A: byte-identical *now* too.
    rewritten = {
        row[0]
        for batches in window_phases["after_snapshot"]
        for batch in batches
        for row in batch
    }
    untouched = [d for d in pool if d not in rewritten]
    untouched_keys = {
        k for k in keys_of(window_phases["first"]) if k[0] in set(untouched)
    }
    assert blob_answers(arm, untouched, untouched_keys) == blob_answers(
        oracle, untouched, untouched_keys
    )


class TestCleanRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_then_merge_is_byte_identical(self, seed):
        """No writes inside the window: the entire end state -- every
        device's rows, each key's values, beginTS and endTS, and the
        AS-OF history at the pre-split snapshot -- is identical to a
        cluster that never reorganized."""
        pool, phase_a, phase_b = workload(seed)
        arm, oracle = make_table(), make_table()
        for table in (arm, oracle):
            apply_phase(table, phase_a)
        snapshot_ts = oracle.shards[0].current_snapshot_ts()
        assert arm.shards[0].current_snapshot_ts() == snapshot_ts

        target = split_then_merge(arm)
        # The fused target resumed the oracle's exact clock state: the
        # two successors' HLCs were untouched copies of the source's.
        assert (
            arm.shards[target].clock.state()
            == oracle.shards[0].clock.state()
        )

        for table in (arm, oracle):
            apply_phase(table, phase_b)

        all_keys = keys_of(phase_a, phase_b) | {(d, PROBE_MSG) for d in pool}
        assert blob_answers(arm, pool, all_keys) == blob_answers(
            oracle, pool, all_keys
        )
        assert blob_answers(
            arm, pool, all_keys, query_ts=snapshot_ts
        ) == blob_answers(oracle, pool, all_keys, query_ts=snapshot_ts)
        # Zero epoch hazards across four publishes and two migrations.
        assert_lifecycles_quiescent(arm)

    @pytest.mark.parametrize("seed", range(6))
    def test_writes_during_the_split_window(self, seed):
        """Phase B lands while the slot is split (routed across both
        successors), then the merge fuses it all back: values agree
        everywhere, history is byte-identical."""
        pool, phase_a, phase_b = workload(seed)
        _, phase_c, _ = workload(seed + 500, pool=pool)
        arm, oracle = make_table(), make_table()
        for table in (arm, oracle):
            apply_phase(table, phase_a)
        snapshot_ts = oracle.shards[0].current_snapshot_ts()

        arm.split_shard(0)
        for table in (arm, oracle):
            apply_phase(table, phase_b)
        arm.merge_shards(1, 2)
        for table in (arm, oracle):
            apply_phase(table, phase_c)

        assert_window_differential(
            arm,
            oracle,
            pool,
            {
                "all": (phase_a, phase_b, phase_c),
                "after_snapshot": (phase_b, phase_c),
                "first": phase_a,
            },
            snapshot_ts,
        )
        assert_lifecycles_quiescent(arm)


class TestPumpedRoundTrip:
    @pytest.mark.parametrize("budget", (1, 7, 64))
    def test_pumped_merge_is_byte_identical_to_synchronous(self, budget):
        """step(budget) slices produce the same bytes as run-to-end."""
        pool, phase_a, phase_b = workload(3)
        pumped, sync = make_table(), make_table()
        for table in (pumped, sync):
            apply_phase(table, phase_a)
            table.split_shard(0)

        sync.merge_shards(1, 2)
        pumped.begin_merge(1, 2)
        steps = 0
        while True:
            summary = pumped.migration_step(budget=budget)
            steps += 1
            if summary["phase"] == "done":
                break
            assert steps < 10_000
        assert pumped.routing_epoch() == sync.routing_epoch() == 4

        for table in (pumped, sync):
            apply_phase(table, phase_b)
        all_keys = keys_of(phase_a, phase_b) | {(d, PROBE_MSG) for d in pool}
        assert blob_answers(pumped, pool, all_keys) == blob_answers(
            sync, pool, all_keys
        )

    @pytest.mark.parametrize("budget", (1, 16))
    def test_pumped_split_is_byte_identical_to_synchronous(self, budget):
        pool, phase_a, phase_b = workload(5)
        pumped, sync = make_table(), make_table()
        for table in (pumped, sync):
            apply_phase(table, phase_a)

        sync.split_shard(0)
        pumped.begin_split(0)
        steps = 0
        while True:
            summary = pumped.migration_step(budget=budget)
            steps += 1
            if summary["phase"] == "done":
                break
            assert steps < 10_000
        assert pumped.routing_epoch() == sync.routing_epoch() == 2

        for table in (pumped, sync):
            apply_phase(table, phase_b)
        all_keys = keys_of(phase_a, phase_b) | {(d, PROBE_MSG) for d in pool}
        assert blob_answers(pumped, pool, all_keys) == blob_answers(
            sync, pool, all_keys
        )


class TestCrashMatrix:
    @pytest.mark.parametrize("site", CRASH_SITES)
    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_crash_recovers_to_oracle_identical_answers(self, site, seed):
        pool, phase_a, phase_b = workload(seed)
        arm, oracle = make_table(), make_table()
        for table in (arm, oracle):
            apply_phase(table, phase_a)
        snapshot_ts = oracle.shards[0].current_snapshot_ts()

        arm.split_shard(0)

        plan = FaultPlan(seed=seed, crash_triggers={site: frozenset({1})})
        with install_crash_schedule(CrashSchedule(plan.crash_triggers)):
            with pytest.raises(SimulatedCrash):
                arm.merge_shards(1, 2)

        outcome = arm.recover_migration()
        assert outcome["resumed"] is True, describe_plan(plan)
        if site == "merge.pre_copy":
            # Nothing was published: the slot keeps its split route.
            assert outcome["outcome"] == "rolled_back"
            assert arm.routing_epoch() == 2
            assert arm.live_shard_ids() == [1, 2]
        else:
            # Anything after the write cutover rolls forward to done.
            assert outcome["outcome"] == "rolled_forward"
            assert arm.routing_epoch() == 4
            assert arm.live_shard_ids() == [3]

        # Recovery is idempotent: a second call is a no-op at the same epoch.
        again = arm.recover_migration()
        assert again["resumed"] is False
        assert again["epoch"] == arm.routing_epoch()

        for table in (arm, oracle):
            apply_phase(table, phase_b)
        assert_window_differential(
            arm,
            oracle,
            pool,
            {
                "all": (phase_a, phase_b),
                "after_snapshot": (phase_b,),
                "first": phase_a,
            },
            snapshot_ts,
        )
        assert_lifecycles_quiescent(arm)
