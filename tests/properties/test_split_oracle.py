"""Oracle-differential tests for online shard split (ISSUE 8).

Two clusters run the *identical* seeded workload: the **split arm**
splits its only shard between two workload phases, the **oracle** never
splits.  The paper's claim for online reorganization is that clients
cannot tell -- so after both arms drain:

* every point answer agrees on values and visibility for every key ever
  written (and for never-written probe keys);
* per-device range reads (typed queries) agree row for row;
* AS-OF queries at the pre-split snapshot timestamp are **byte
  identical** -- the copy is a verbatim ``(sort_key, blob)`` transfer,
  so history does not merely *agree*, it is the same bytes;
* devices untouched after the split stay byte-identical at the current
  timestamp too.

Post-split writes routed to *both* successors cannot be blob-identical
to the single-log oracle in general: each successor grooms its own
subset, so the ``order`` component of ``beginTS`` differs even though
every answer's values agree.  When every post-split write lands on *one*
successor the interleaving is preserved and the suite asserts full byte
identity end to end (``test_single_successor_phase_is_byte_identical``).

The crash matrix replays the same differential through every ``split.*``
crash point: recovery must land on fully-old or fully-new routing (never
torn), be idempotent, and still answer oracle-identically.
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
from repro.wildfire.shardmap import successor_side as _successor_side

pytestmark = pytest.mark.timeout(300)

SEEDS = range(20)
CRASH_SITES = (
    "split.pre_copy",
    "split.mid_copy",
    "split.pre_publish",
    "split.post_publish",
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


def successor_side(table, device):
    return _successor_side(table.key_hash((device,)))


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
    """State at a snapshot: each device's full rows + full point records.

    ``with_end_ts=False`` drops ``end_ts`` from point answers: an old
    version's end timestamp *is* its successor version's ``beginTS``,
    which is exactly the component that legitimately diverges for keys
    rewritten across both successors after a split.
    """
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


def assert_oracle_identical(split_arm, oracle, pool, phase_a, phase_b, snapshot_ts):
    """The full post-drain differential between the two arms."""
    keys_a = keys_of(phase_a)
    all_keys = keys_of(phase_a, phase_b) | {(d, PROBE_MSG) for d in pool}

    # Values: every answer a client can get agrees, split or not.
    assert value_answers(split_arm, pool, all_keys) == value_answers(
        oracle, pool, all_keys
    )
    # AS-OF the pre-split snapshot: byte-identical history (the copy is
    # verbatim, and nothing written after the snapshot is visible at it).
    assert blob_answers(
        split_arm, pool, all_keys, query_ts=snapshot_ts, with_end_ts=False
    ) == blob_answers(
        oracle, pool, all_keys, query_ts=snapshot_ts, with_end_ts=False
    )
    # Devices never rewritten after the split: byte-identical *now* too.
    untouched = [d for d in pool if d not in {r[0] for b in phase_b for r in b}]
    untouched_keys = {k for k in keys_a if k[0] in set(untouched)}
    assert blob_answers(split_arm, untouched, untouched_keys) == blob_answers(
        oracle, untouched, untouched_keys
    )


class TestCleanSplit:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_matches_never_split_oracle(self, seed):
        pool, phase_a, phase_b = workload(seed)
        split_arm, oracle = make_table(), make_table()
        for table in (split_arm, oracle):
            apply_phase(table, phase_a)

        snapshot_ts = oracle.shards[0].current_snapshot_ts()
        assert split_arm.shards[0].current_snapshot_ts() == snapshot_ts
        keys_a = keys_of(phase_a)
        assert blob_answers(split_arm, pool, keys_a) == blob_answers(
            oracle, pool, keys_a
        )

        summary = split_arm.split_shard(0)
        assert summary["phase"] == "done"
        assert summary["copied_entries"] > 0
        assert split_arm.routing_epoch() == 2
        assert split_arm.live_shard_ids() == [1, 2]

        for table in (split_arm, oracle):
            apply_phase(table, phase_b)
        assert_oracle_identical(
            split_arm, oracle, pool, phase_a, phase_b, snapshot_ts
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_single_successor_phase_is_byte_identical(self, seed):
        """All post-split writes on one successor: full byte identity.

        With the whole phase-B stream on the left successor, the clock
        handoff makes its (cycle, order) assignments identical to the
        oracle's single log -- so even ``beginTS``/``endTS`` match and
        the *entire* end state compares blob-for-blob.
        """
        probe = make_table()
        left_pool = [d for d in range(64) if successor_side(probe, d) == 0][:8]
        pool, phase_a, _ = workload(seed)
        _, phase_b, _ = workload(seed + 1000, pool=left_pool)

        devices = sorted(set(pool) | set(left_pool))
        split_arm, oracle = make_table(), make_table()
        for table in (split_arm, oracle):
            apply_phase(table, phase_a)
        split_arm.split_shard(0)
        for table in (split_arm, oracle):
            apply_phase(table, phase_b)

        all_keys = keys_of(phase_a, phase_b) | {(d, PROBE_MSG) for d in devices}
        assert blob_answers(split_arm, devices, all_keys) == blob_answers(
            oracle, devices, all_keys
        )


class TestCrashMatrix:
    @pytest.mark.parametrize("site", CRASH_SITES)
    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_crash_recovers_to_oracle_identical_answers(self, site, seed):
        pool, phase_a, phase_b = workload(seed)
        split_arm, oracle = make_table(), make_table()
        for table in (split_arm, oracle):
            apply_phase(table, phase_a)
        snapshot_ts = oracle.shards[0].current_snapshot_ts()

        plan = FaultPlan(seed=seed, crash_triggers={site: frozenset({1})})
        with install_crash_schedule(CrashSchedule(plan.crash_triggers)):
            with pytest.raises(SimulatedCrash):
                split_arm.split_shard(0)

        outcome = split_arm.recover_migration()
        assert outcome["resumed"] is True, describe_plan(plan)
        if site == "split.pre_copy":
            # Nothing was published: fully-old routing, no successors.
            assert outcome["outcome"] == "rolled_back"
            assert split_arm.routing_epoch() == 0
            assert split_arm.live_shard_ids() == [0]
        else:
            # Anything after the write cutover rolls forward to done.
            assert outcome["outcome"] == "rolled_forward"
            assert split_arm.routing_epoch() == 2
            assert split_arm.live_shard_ids() == [1, 2]

        # Recovery is idempotent: a second call is a no-op at the same epoch.
        again = split_arm.recover_migration()
        assert again["resumed"] is False
        assert again["epoch"] == split_arm.routing_epoch()

        for table in (split_arm, oracle):
            apply_phase(table, phase_b)
        if site == "split.pre_copy":
            # The un-split arm is byte-identical outright.
            all_keys = keys_of(phase_a, phase_b) | {
                (d, PROBE_MSG) for d in pool
            }
            assert blob_answers(split_arm, pool, all_keys) == blob_answers(
                oracle, pool, all_keys
            )
        else:
            assert_oracle_identical(
                split_arm, oracle, pool, phase_a, phase_b, snapshot_ts
            )
