"""Tests for query processing (paper section 7): bounds, pruning,
set-vs-priority-queue reconciliation, point and batched lookups."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import ColumnSpec, IndexDefinition, i1_definition, i3_definition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.query import (
    MAX_QUERY_TS,
    PointLookup,
    QueryError,
    QueryExecutor,
    RangeScanQuery,
    ReconcileStrategy,
    compute_scan_bounds,
    encode_point_key,
)
from repro.planner import PlanError, Query
from repro.storage.hierarchy import StorageHierarchy

from tests import reference_scan

DEF = i1_definition()


def entry(device, msg, ts, block=0, offset=0, zone=Zone.GROOMED):
    return IndexEntry.create(
        DEF, (device,), (msg,), (device * 100 + msg,), ts, RID(zone, block, offset)
    )


def build_runs(groups):
    """groups: list of entry lists, index 0 = oldest run."""
    hierarchy = StorageHierarchy()
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=512)
    runs = []
    for i, entries in enumerate(groups):
        runs.append(builder.build(f"q{i}", entries, Zone.GROOMED, 0, i, i))
    runs.reverse()  # newest first
    return runs


def executor_for(runs, **kwargs):
    return QueryExecutor(DEF, lambda: list(runs), **kwargs)


def run_may_contain(run, query):
    """Does a scan search ``run``?  The executor's inlined candidate check,
    which must agree with the section 7 predicate kept as reference."""
    executor = executor_for([run])
    searched = executor._candidates([run], query) == [run]
    assert searched == reference_scan.run_may_contain(run, query)
    return searched


class TestBounds:
    def test_scan_requires_all_equality_columns(self):
        with pytest.raises(QueryError):
            compute_scan_bounds(DEF, RangeScanQuery(equality_values=()))

    def test_sort_bound_arity_checked(self):
        with pytest.raises(QueryError):
            compute_scan_bounds(
                DEF, RangeScanQuery(equality_values=(1,), sort_lower=(1, 2))
            )

    def test_point_requires_full_key(self):
        with pytest.raises(QueryError):
            encode_point_key(DEF, (1,), ())

    def test_unbounded_scan_covers_prefix(self):
        bounds = compute_scan_bounds(DEF, RangeScanQuery(equality_values=(5,)))
        assert bounds.lower_key < bounds.upper_exclusive
        assert bounds.hash_value == DEF.hash_of((5,))

    def test_pure_range_index_unbounded_everything(self):
        definition = IndexDefinition(sort_columns=(ColumnSpec("s"),))
        bounds = compute_scan_bounds(definition, RangeScanQuery())
        assert bounds.lower_key == b""
        assert bounds.upper_exclusive == b""
        assert bounds.hash_value is None


class TestMistypedKeyValues:
    """A search key is encoded by declared type, unvalidated: what
    ``upsert`` would refuse must be a QueryError naming column, declared
    type and value -- not an answer (a bool is an int to the encoder), not
    the interpreter's text, and never a bare EncodingError."""

    BAD = [
        (True, "column 'sort0' expects int64, got bool (True)"),
        (1.0, "column 'sort0' expects int64, got float (1.0)"),
        ("2", "column 'sort0' expects int64, got str ('2')"),
        (None, "column 'sort0' expects int64, got NoneType (None)"),
        (2**70, "column 'sort0': integer 1180591620717411303424 outside "
                "signed 64-bit range"),
    ]
    IDS = ["bool", "float", "str", "none", "beyond-int64"]

    @pytest.mark.parametrize("bad,refusal", BAD, ids=IDS)
    def test_index_doors_refuse_with_the_column_named(self, bad, refusal):
        executor = executor_for(build_runs([[entry(1, 1, 5)]]))
        message = f"key value of the wrong type: {refusal}"
        for door in (
            lambda: executor.lookup((1,), (bad,)),
            lambda: executor.scan((1,), (bad,), None),
            lambda: executor.scan((1,), None, (bad,)),
        ):
            with pytest.raises(QueryError) as refused:
                door()
            assert str(refused.value) == message
        with pytest.raises(QueryError, match="column 'eq0' expects int64"):
            executor.lookup(("x",), (1,))

    @pytest.mark.parametrize("bad,refusal", BAD, ids=IDS)
    def test_shard_doors_refuse_with_the_column_named(self, bad, refusal):
        from repro.wildfire.engine import WildfireShard
        from repro.wildfire.schema import IndexSpec, TableSchema

        shard = WildfireShard(
            TableSchema(
                name="t",
                columns=(ColumnSpec("eq0"), ColumnSpec("sort0"), ColumnSpec("v")),
                primary_key=("eq0", "sort0"),
            ),
            IndexSpec(("eq0",), ("sort0",)),
        )
        shard.ingest([(1, 1, 10), (1, 2, 20)])
        shard.tick()
        assert shard.point_query((1,), (1,)).values == (1, 1, 10)
        for door in (
            lambda: shard.point_query((1,), (bad,)),
            lambda: shard.index_lookup((1,), (bad,)),
            lambda: shard.time_travel((1,), (bad,), MAX_QUERY_TS),
        ):
            with pytest.raises(QueryError) as refused:
                door()
            assert str(refused.value) == f"key value of the wrong type: {refusal}"
        # A range read is a typed query: it refuses the bound like any
        # predicate value (``None`` is an open bound there, not a value).
        if bad is not None:
            with pytest.raises(PlanError) as refused:
                shard.query(Query(
                    equalities=(("eq0", 1),), ranges=(("sort0", bad, 9),),
                ))
            assert str(refused.value) == f"query predicate: {refusal}"


class TestSynopsisPruning:
    def test_non_overlapping_run_pruned(self):
        runs = build_runs([[entry(d, 0, 1) for d in range(10)]])
        query = RangeScanQuery(equality_values=(50,))
        assert not run_may_contain(runs[0], query)

    def test_overlapping_run_kept(self):
        runs = build_runs([[entry(d, 0, 1) for d in range(10)]])
        assert run_may_contain(runs[0], RangeScanQuery(equality_values=(5,)))

    def test_sort_range_pruning(self):
        runs = build_runs([[entry(1, m, 1) for m in range(10, 20)]])
        miss = RangeScanQuery(equality_values=(1,), sort_lower=(30,), sort_upper=(40,))
        hit = RangeScanQuery(equality_values=(1,), sort_lower=(15,), sort_upper=(40,))
        assert not run_may_contain(runs[0], miss)
        assert run_may_contain(runs[0], hit)

    def test_begin_ts_pruning(self):
        runs = build_runs([[entry(1, 0, 100)]])
        assert not run_may_contain(runs[0], RangeScanQuery((1,), query_ts=50))

    def test_empty_run_pruned(self):
        runs = build_runs([[]])
        assert not run_may_contain(runs[0], RangeScanQuery((1,)))

    @pytest.mark.parametrize("door", ["lookup", "batch_lookup", "batch_lookup_columns"])
    def test_a_miss_outside_every_synopsis_reads_no_block(self, door):
        """Runs carry no per-key filter: a key no run's synopsis covers is
        answered from the headers alone, while a covered key reads blocks."""
        runs = build_runs([
            [entry(d, m, 1 + m) for d in range(10) for m in range(20)],
            [entry(d, m, 50 + m) for d in range(5, 15) for m in range(20)],
        ])
        hierarchy = runs[0].hierarchy
        ex = executor_for(runs)
        answer = {
            "lookup": lambda keys: [ex.lookup((d,), (m,)) for d, m in keys],
            "batch_lookup": lambda keys: ex.batch_lookup(
                [PointLookup((d,), (m,), MAX_QUERY_TS) for d, m in keys]
            ),
            "batch_lookup_columns": lambda keys: ex.batch_lookup_columns(
                list(zip(*keys)), MAX_QUERY_TS
            ),
        }[door]
        fetched = []
        real_read = hierarchy.read

        def recording_read(block_id, *args, **kwargs):
            fetched.append(block_id)
            return real_read(block_id, *args, **kwargs)

        hierarchy.read = recording_read
        try:
            for run in runs:
                run.drop_decode_cache()
            assert answer([(50, 3), (99, 0), (20, 7)]) == [None] * 3
            assert fetched == []
            hits = answer([(3, 4), (12, 19)])
        finally:
            del hierarchy.read
        assert [(e.begin_ts, e.equality_values) for e in hits] == [(5, (3,)), (69, (12,))]
        assert fetched


class TestReconciliation:
    def make_version_runs(self):
        """Key (1, m) written in run0 at ts=m+1, rewritten in run1 at ts=50+m."""
        old = [entry(1, m, m + 1, offset=m) for m in range(5)]
        new = [entry(1, m, 50 + m, block=1, offset=m) for m in range(3)]
        return build_runs([old, new])

    def test_newest_version_wins(self):
        runs = self.make_version_runs()
        ex = executor_for(runs)
        hits = ex.scan((1,), (0,), (9,))
        got = {(e.sort_values[0], e.begin_ts) for e in hits}
        assert got == {(0, 50), (1, 51), (2, 52), (3, 4), (4, 5)}

    def test_set_and_priority_queue_agree(self):
        runs = self.make_version_runs()
        ex = executor_for(runs)
        for query in (
            RangeScanQuery((1,), (0,), (9,)),
            RangeScanQuery((10_000,)),  # an empty range
        ):
            set_result = ex.scan(*query, strategy=ReconcileStrategy.SET)
            pq_result = ex.scan(*query, strategy=ReconcileStrategy.PRIORITY_QUEUE)
            assert set_result == pq_result
        assert pq_result == []

    def test_results_are_key_ordered(self):
        runs = self.make_version_runs()
        hits = executor_for(runs).scan((1,), (0,), (9,))
        keys = [e.key_bytes(DEF) for e in hits]
        assert keys == sorted(keys)

    def test_snapshot_reverts_to_older_version(self):
        runs = self.make_version_runs()
        for query_ts, expected in (
            (10, {(m, m + 1) for m in range(5)}),
            (0, set()),  # below every version: nothing is visible
        ):
            hits = executor_for(runs).scan((1,), (0,), (9,), query_ts=query_ts)
            got = {(e.sort_values[0], e.begin_ts) for e in hits}
            assert got == expected

    def test_cross_zone_duplicate_reconciled_once(self):
        hierarchy = StorageHierarchy()
        builder = RunBuilder(DEF, hierarchy)
        g = builder.build("g", [entry(1, 1, 10)], Zone.GROOMED, 0, 0, 0)
        p = builder.build(
            "p", [entry(1, 1, 10, zone=Zone.POST_GROOMED)], Zone.POST_GROOMED, 3, 0, 0
        )
        ex = QueryExecutor(DEF, lambda: [g, p])
        for strategy in ReconcileStrategy:
            hits = ex.scan((1,), strategy=strategy)
            assert len(hits) == 1


class TestPointLookup:
    def test_first_match_stops(self):
        probe_counter = {"runs_iterated": 0}
        runs = build_runs([
            [entry(1, 1, 1)],
            [entry(1, 1, 2, block=1)],
        ])
        ex = executor_for(runs)
        hit = ex.lookup((1,), (1,))
        assert hit.begin_ts == 2  # newest run searched first

    def test_miss_returns_none(self):
        runs = build_runs([[entry(1, 1, 1)]])
        assert executor_for(runs).lookup((9,), (9,)) is None

    def test_snapshot_respected(self):
        runs = build_runs([[entry(1, 1, 5)], [entry(1, 1, 20, block=1)]])
        ex = executor_for(runs)
        assert ex.lookup((1,), (1,), query_ts=10).begin_ts == 5


class TestBatchLookup:
    def test_batch_matches_individual(self):
        groups = [
            [entry(d, m, d + m + 1, offset=d * 3 + m) for d in range(10) for m in range(3)],
            [entry(d, 0, 40 + d, block=1, offset=d) for d in range(5)],
        ]
        runs = build_runs(groups)
        ex = executor_for(runs)
        lookups = [PointLookup((d,), (m,)) for d in range(12) for m in range(3)]
        batch = ex.batch_lookup(lookups)
        single = [ex.lookup(*lk) for lk in lookups]
        assert batch == single

    def test_empty_batch(self):
        assert executor_for([]).batch_lookup([]) == []

    def test_mixed_timestamps(self):
        runs = build_runs([[entry(1, 1, 5), entry(1, 1, 20, offset=1)]])
        ex = executor_for(runs)
        results = ex.batch_lookup([
            PointLookup((1,), (1,), query_ts=10),
            PointLookup((1,), (1,), query_ts=30),
        ])
        assert [r.begin_ts for r in results] == [5, 20]


class TestIncludedColumns:
    def test_index_only_access(self):
        runs = build_runs([[entry(3, 4, 1)]])
        hit = executor_for(runs).lookup((3,), (4,))
        assert hit.include_values == (304,)  # no record fetch needed


class TestPropertyReconciliation:
    @settings(max_examples=25, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(1, 50)),
            min_size=1, max_size=40,
        ),
        runs_split=st.integers(1, 4),
        query_device=st.integers(0, 8),
        query_ts=st.integers(1, 50),
    )
    def test_strategies_agree_and_match_oracle(
        self, writes, runs_split, query_device, query_ts
    ):
        # Split writes into runs_split consecutive runs (older first).
        chunk = max(1, len(writes) // runs_split)
        groups = [
            [entry(d, m, ts, offset=i) for i, (d, m, ts) in enumerate(part)]
            for part in (writes[i:i + chunk] for i in range(0, len(writes), chunk))
        ]
        runs = build_runs(groups)
        ex = executor_for(runs)
        query = RangeScanQuery((query_device,), query_ts=query_ts)
        set_r = ex.scan(*query, strategy=ReconcileStrategy.SET)
        pq_r = ex.scan(*query, strategy=ReconcileStrategy.PRIORITY_QUEUE)
        assert set_r == pq_r
        oracle = {}
        for position, (d, m, ts) in enumerate(writes):
            if d == query_device and ts <= query_ts:
                best = oracle.get(m)
                # Later writes win ties (they live in newer runs/positions).
                if best is None or ts >= best[0]:
                    oracle[m] = (ts, position)
        assert {(e.sort_values[0], e.begin_ts) for e in pq_r} == {
            (m, ts) for m, (ts, _) in oracle.items()
        }
