"""The automatic split/merge policy (ISSUE 10).

The policy is a hysteresis controller over the online reorganizers:
conditions must *sustain* for a streak of evaluations before anything
moves, every action opens an observation-only cooldown, and qos
refusals (SplitAborted / MergeAborted) are recorded without wedging the
loop.  The thresholds sit far apart so a slot cannot oscillate.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire import rebalance as rebalance_module
from repro.wildfire.rebalance import (
    BACKLOG_HIGH_WATER_NS,
    RebalanceConfig,
    RebalancePolicy,
)
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.migration import SplitAborted

pytestmark = pytest.mark.timeout(120)


def make_table(num_shards=2):
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
        config=ShardConfig(post_groom_every=1),
    )


def seed(table, devices=16, msgs=4):
    table.ingest(
        [(d, m, d * 10 + m) for d in range(devices) for m in range(msgs)]
    )
    table.run_cycles(4)


def make_policy(table, **overrides):
    defaults = dict(
        split_entry_high_water=8,
        merge_entry_low_water=1_000,  # everything is "cold" once split
        split_after=3,
        merge_after=4,
        cooldown_evaluations=2,
    )
    defaults.update(overrides)
    return RebalancePolicy(table, RebalanceConfig(**defaults))


class TestSplitTrigger:
    def test_sustained_high_water_splits_the_hot_shard(self):
        table = make_table()
        seed(table)
        policy = make_policy(table, merge_entry_low_water=0)
        epoch_before = table.routing_epoch()
        # Two evaluations of pressure: streak not yet due, nothing moves.
        assert policy.step() is None
        assert policy.step() is None
        assert table.routing_epoch() == epoch_before
        # Third consecutive evaluation: the (lowest-id) hot shard splits.
        decision = policy.step()
        assert decision is not None and decision["action"] == "split"
        assert decision["reason"] == "entry high water"
        assert table.routing_epoch() == epoch_before + 2
        assert policy.stats.splits == 1

    def test_streak_resets_when_pressure_lapses(self):
        table = make_table()
        seed(table)
        policy = make_policy(table, merge_entry_low_water=0)
        policy.step()
        policy.step()
        assert max(policy._split_streaks.values()) == 2
        # The condition lapses for one evaluation: raise the bar so no
        # shard is hot, then restore it -- the streak must restart.
        policy.config = RebalanceConfig(
            split_entry_high_water=10_000,
            merge_entry_low_water=0,
            split_after=3,
        )
        assert policy.step() is None
        assert policy._split_streaks == {}
        policy.config = RebalanceConfig(
            split_entry_high_water=8, merge_entry_low_water=0, split_after=3
        )
        assert policy.step() is None  # streak is 1 again, not 3
        assert table.routing_epoch() == 0

    def test_backlog_splits_the_largest_shard(self, monkeypatch):
        table = make_table()
        seed(table)
        policy = make_policy(
            table,
            split_entry_high_water=10_000,  # nobody hot by entries
            merge_entry_low_water=0,
            split_after=2,
        )
        monkeypatch.setattr(policy, "backlog_ns", lambda: BACKLOG_HIGH_WATER_NS)
        largest = max(
            (s for s in table.live_shard_ids()), key=policy.entry_count
        )
        assert policy.step() is None
        decision = policy.step()
        assert decision["action"] == "split"
        assert decision["reason"] == "admission backlog"
        assert decision["shards"] == [largest]

    def test_aborted_split_is_recorded_not_fatal(self, monkeypatch):
        table = make_table()
        seed(table)
        policy = make_policy(
            table, split_after=1, merge_entry_low_water=0
        )

        def refuse(shard_id):
            raise SplitAborted("maintenance backpressure")

        monkeypatch.setattr(table, "split_shard", refuse)
        decision = policy.step()
        assert decision["action"] == "split_aborted"
        assert policy.stats.aborted_splits == 1
        assert table.routing_epoch() == 0
        # The loop keeps evaluating; the streak re-accumulates.
        assert policy.step()["action"] == "split_aborted"


class TestMergeTriggerAndCooldown:
    def test_cooldown_then_sustained_coldness_merges_back(self):
        table = make_table(num_shards=1)
        seed(table)
        policy = make_policy(table)
        # Ride the split streak to the split...
        for _ in range(2):
            assert policy.step() is None
        split_decision = policy.step()
        assert split_decision["action"] == "split"
        # ...then the cooldown holds even though the successors are
        # instantly "cold" under the generous low water.
        assert policy.step() is None
        assert policy.step() is None
        assert policy.stats.cooldown_skips == 2
        # Coldness accumulated during the cooldown (streak ticks even
        # while observing), so the merge is due right after it ends.
        for _ in range(10):
            decision = policy.step()
            if decision is not None:
                break
        assert decision["action"] == "merge"
        assert policy.stats.merges == 1
        assert table.routing_epoch() == 4
        assert len(table.live_shard_ids()) == 1
        # Round trip preserved the data.
        record = table.point_query((3,), (1,))
        assert record is not None and record.values == (3, 1, 31)

    def test_hot_successors_do_not_merge(self):
        table = make_table(num_shards=1)
        seed(table)
        policy = make_policy(table, merge_entry_low_water=0)
        for _ in range(3):
            policy.step()
        assert policy.stats.splits == 1
        for _ in range(20):
            assert policy.step() is None
        assert policy.stats.merges == 0
        assert table.routing_epoch() == 2

    def test_summary_carries_the_audit_trail(self):
        table = make_table()
        seed(table)
        policy = make_policy(table)
        for _ in range(3):
            policy.step()
        summary = policy.summary()
        assert summary["stats"]["splits"] == 1
        assert summary["stats"]["evaluations"] == 3
        assert [d["action"] for d in summary["decisions"]] == ["split"]
        assert summary["decisions"][0]["epoch_after"] == 2


class TestPolicyDaemon:
    def test_daemon_thread_drives_a_split(self, monkeypatch):
        monkeypatch.setattr(rebalance_module, "STEP_INTERVAL_S", 0.002)
        table = make_table()
        seed(table)
        policy = make_policy(table, split_after=1, merge_entry_low_water=0)
        policy.start()
        try:
            for _ in range(500):
                if policy.stats.splits:
                    break
                import time

                time.sleep(0.005)
        finally:
            policy.stop()
        assert policy.stats.splits >= 1
        assert table.routing_epoch() >= 2
