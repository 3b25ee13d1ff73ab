"""Tests for MVCC retention garbage collection during merges."""

from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec
from repro.core.definition import i1_definition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.clock import COMMIT_BITS
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import TIME_TRAVEL_WINDOW_CYCLES
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import key_of, merged_blob_pairs
from tests.reference_merge import decode_pairs

DEF = i1_definition()


def merged_entries(definition, runs, retention_ts=None):
    """The merge kernel's pairs, decoded."""
    return decode_pairs(definition, merged_blob_pairs(runs, retention_ts))


def version(k: int, ts: int, offset: int = 0) -> IndexEntry:
    return IndexEntry.create(
        DEF, (k,), (k,), (k * 10 + ts,), ts, RID(Zone.GROOMED, 0, offset)
    )


def run_of(entries, run_id="r", gid=0):
    builder = RunBuilder(DEF, StorageHierarchy())
    return builder.build(run_id, entries, Zone.GROOMED, 0, gid, gid)


class TestMergeStreamRetention:
    def test_no_retention_keeps_all_versions(self):
        run = run_of([version(1, ts) for ts in (10, 20, 30)])
        merged = list(merged_entries(DEF, [run]))
        assert [e.begin_ts for e in merged] == [30, 20, 10]

    def test_retention_keeps_horizon_visible_version(self):
        run = run_of([version(1, ts) for ts in (10, 20, 30)])
        merged = list(merged_entries(DEF, [run], retention_ts=25))
        # 30 (newer than horizon) and 20 (visible at 25) survive; 10 dies.
        assert [e.begin_ts for e in merged] == [30, 20]

    def test_retention_keeps_single_old_version(self):
        run = run_of([version(1, 5)])
        merged = list(merged_entries(DEF, [run], retention_ts=100))
        assert [e.begin_ts for e in merged] == [5]

    def test_retention_is_per_key(self):
        run = run_of(
            [version(1, 10), version(1, 20), version(2, 5, 1), version(2, 15, 1)]
        )
        merged = list(merged_entries(DEF, [run], retention_ts=50))
        by_key = {}
        for e in merged:
            by_key.setdefault(e.equality_values[0], []).append(e.begin_ts)
        assert by_key == {1: [20], 2: [15]}

    @settings(max_examples=30, deadline=None)
    @given(
        versions=st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 50)),
            min_size=1, max_size=30, unique=True,
        ),
        horizon=st.integers(1, 50),
        probe_ts=st.integers(1, 60),
    )
    def test_snapshots_at_or_above_horizon_unchanged(
        self, versions, horizon, probe_ts
    ):
        """Retention must never change the answer of a query at any
        query_ts >= retention horizon."""
        from repro.core.query import QueryExecutor

        if probe_ts < horizon:
            probe_ts = horizon + (probe_ts % 10)
        entries = [version(k, ts, i) for i, (k, ts) in enumerate(versions)]
        full = run_of(entries, "full")
        compacted = run_of(
            list(merged_entries(DEF, [run_of(entries, "tmp")], horizon)),
            "compacted", gid=1,
        )
        ex_full = QueryExecutor(DEF, lambda: [full])
        ex_compacted = QueryExecutor(DEF, lambda: [compacted])
        for k in range(5):
            a = ex_full.lookup((k,), (k,), probe_ts)
            b = ex_compacted.lookup((k,), (k,), probe_ts)
            if a is None:
                assert b is None
            else:
                assert b is not None and b.begin_ts == a.begin_ts


class TestIndexRetention:
    def build(self):
        levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                             max_runs_per_level=2, size_ratio=2)
        return UmziIndex(DEF, config=UmziConfig(name="ret", levels=levels))

    def test_merge_applies_retention(self):
        index = self.build()
        # Key 7 updated in each of 4 runs (ts 1..4).
        for gid, ts in enumerate((1, 2, 3, 4)):
            index.add_groomed_run([version(7, ts)], gid, gid)
        index.retention_ts = 3
        index.run_maintenance()
        eq, sort = key_of(DEF, 7)
        # Newest and horizon-visible versions still answer:
        assert index.lookup(eq, sort).begin_ts == 4
        assert index.lookup(eq, sort, query_ts=3).begin_ts == 3
        # Total surviving versions: ts=4 and ts=3 only.
        total = sum(run.entry_count for run in index.all_runs())
        assert total == 2

    def test_the_shard_moves_its_horizon_forward_a_window_behind(self):
        """Every tick sets each index's horizon ``TIME_TRAVEL_WINDOW_CYCLES``
        groom cycles behind the snapshot -- 0 until the shard is older than
        that -- so it never moves back, across a split's clock hand-over too."""
        schema = TableSchema("ret", (ColumnSpec("k"), ColumnSpec("v")), ("k",), ("k",))
        table = ShardedTable(schema, IndexSpec(sort_columns=("k",)), num_shards=1)
        seen = {}  # shard id -> its horizons, tick by tick
        for cycle in range(TIME_TRAVEL_WINDOW_CYCLES + 20):
            if cycle == TIME_TRAVEL_WINDOW_CYCLES + 5:
                table.split_shard(0)
            table.ingest([(cycle, cycle)])
            table.tick()
            for shard_id in table.live_shard_ids():
                shard = table.shards[shard_id]
                horizons = {si.index.retention_ts for si in shard.indexes.all()}
                window = TIME_TRAVEL_WINDOW_CYCLES << COMMIT_BITS
                assert horizons == {max(0, shard.clock.snapshot_ts - window)}
                seen.setdefault(shard_id, []).append(horizons.pop())
        assert seen[0][0] == 0 and len(seen) == 3
        for horizons in seen.values():
            assert horizons[-1] > 0 and horizons == sorted(horizons)

    def test_no_retention_by_default(self):
        index = self.build()
        for gid, ts in enumerate((1, 2, 3, 4)):
            index.add_groomed_run([version(7, ts)], gid, gid)
        index.run_maintenance()
        total = sum(run.entry_count for run in index.all_runs())
        assert total == 4
