"""Golden explain() tests: the chosen access path per workload query.

These are the planner's contract with the A15 bench: for the canonical
two-secondary orders workload, the smart planner must pick exactly these
paths, and baseline/smart must return byte-identical rows for every
query (the fetch-back re-check invariant).
"""

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(planner="smart"):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    primary = IndexSpec(sort_columns=("order_id",))
    config = ShardConfig(
        planner=planner,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return WildfireShard(schema, primary, config=config)


def seed(shard, n=60):
    shard.ingest([
        (i, f"c{i % 5}", f"r{i % 3}", i * 10) for i in range(n)
    ])
    shard.run_cycles(4)


WORKLOAD = (
    Query(equalities=(("order_id", 7),)),
    Query(ranges=(("order_id", 10, 20),)),
    Query(equalities=(("customer", "c2"),),
          projection=("order_id", "amount")),
    Query(equalities=(("customer", "c2"),)),
    Query(ranges=(("region", "r0", "r1"),),
          projection=("region", "amount")),
    Query(equalities=(("customer", "c1"),),
          ranges=(("amount", 100, 400),)),
)

# (index, mode, index_only, fetch_back) per workload query.
GOLDEN = (
    ("primary", "point", False, False),
    ("primary", "scan", False, False),
    ("by_customer", "scan", True, False),
    ("by_customer", "scan", False, True),
    ("by_region", "scan", True, False),
    ("by_customer", "scan", False, True),
)


class TestGoldenPlans:
    def test_smart_chooses_the_golden_path_per_query(self):
        shard = make_shard()
        seed(shard)
        chosen = tuple(
            (
                explain["index"], explain["mode"],
                explain["index_only"], explain["fetch_back"],
            )
            for explain in (shard.explain(q) for q in WORKLOAD)
        )
        assert chosen == GOLDEN

    def test_baseline_always_answers_from_the_primary(self):
        shard = make_shard(planner="baseline")
        seed(shard)
        for query in WORKLOAD:
            explain = shard.explain(query)
            assert explain["planner"] == "baseline"
            assert explain["index"] == "primary"
            assert not explain["index_only"] and not explain["fetch_back"]

    def test_explain_lists_every_candidate(self):
        shard = make_shard()
        seed(shard)
        explain = shard.explain(WORKLOAD[2])
        indexes = {c["index"] for c in explain["candidates"]}
        # by_region has no equality columns, so even a customer query can
        # (expensively) run as a by_region full scan + fetch-back; all
        # three indexes compete and by_customer's index-only variant wins.
        assert indexes == {"primary", "by_customer", "by_region"}
        best = min(explain["candidates"], key=lambda c: c["cost"])
        assert (best["index"], best["index_only"]) == ("by_customer", True)

    def test_explain_is_json_serializable(self):
        import json

        shard = make_shard()
        seed(shard)
        for query in WORKLOAD:
            json.dumps(shard.explain(query))


class TestPlannerEquivalence:
    def test_baseline_and_smart_rows_are_byte_identical(self):
        smart = make_shard()
        baseline = make_shard(planner="baseline")
        for shard in (smart, baseline):
            seed(shard)
        for query in WORKLOAD:
            assert smart.query(query) == baseline.query(query)

    def test_equivalence_survives_included_column_updates(self):
        # Updates that change only an *included* column keep the full
        # entry key stable, so reconciliation collapses the versions even
        # on the index-only path: equivalence must hold everywhere.
        smart = make_shard()
        baseline = make_shard(planner="baseline")
        for shard in (smart, baseline):
            seed(shard)
            shard.ingest([
                (i, f"c{i % 5}", f"r{i % 3}", 7) for i in range(0, 20, 5)
            ])
            shard.run_cycles(4)
        for query in WORKLOAD + (
            Query(equalities=(("customer", "c0"),)),
        ):
            assert smart.query(query) == baseline.query(query)

    def test_key_column_updates_keep_index_only(self):
        # When a *secondary key* column changes across versions, the old
        # entry stays visible under its old key (it has no endTS) and the
        # newer one lives under a different key.  The shard records the
        # ghost and its newest version at groom time, and every secondary
        # plan vouches for its hits from that record, so a covering
        # secondary stays index-only and every answer stays exact.
        smart = make_shard()
        baseline = make_shard(planner="baseline")
        for shard in (smart, baseline):
            seed(shard)
            shard.ingest([(0, "c9", "r9", 7)])  # customer c0 -> c9, region r0 -> r9
            shard.run_cycles(4)
        assert smart.indexes.pending_ghosts() == {
            "primary": 0, "by_customer": 1, "by_region": 1,
        }
        full = Query(ranges=(("region", "r0", "r0"),))
        assert smart.explain(full)["fetch_back"]
        assert smart.query(full) == baseline.query(full)
        for region in ("r0", "r9"):  # the key's old region and its new one
            covered = Query(ranges=(("region", region, region),),
                            projection=("region", "amount"))
            plan = smart.explain(covered)
            assert plan["index_only"] and not plan["fetch_back"]
            assert smart.query(covered) == baseline.query(covered)
        assert smart.query(covered) == [("r9", 7)]

    def test_included_column_updates_keep_index_only(self):
        # Precision of the tracker: updates touching only *included*
        # columns keep the entry key stable, leave no ghosts, and keep
        # the index-only plan available.
        smart = make_shard()
        seed(smart)
        smart.ingest([
            (i, f"c{i % 5}", f"r{i % 3}", 7) for i in range(0, 20, 5)
        ])
        smart.run_cycles(4)
        assert smart.indexes.pending_ghosts() == {
            "primary": 0, "by_customer": 0, "by_region": 0,
        }
        covered = Query(equalities=(("customer", "c2"),),
                        projection=("order_id", "amount"))
        assert smart.explain(covered)["index_only"]


def _entry(entry):
    return entry and (
        entry.equality_values, entry.sort_values, entry.include_values,
        entry.begin_ts, (entry.rid.zone.name, entry.rid.block_id, entry.rid.offset),
    )


def _primary(order_id):
    return ((), (order_id,), (), 33554432 + order_id, ("GROOMED", 0, order_id))


def _record(order_id):
    return (
        (order_id, f"c{order_id % 5}", f"r{order_id % 3}", order_id * 10),
        33554432 + order_id,
    )


class TestWrappersCallTheIndex:
    """The wrapper methods used to build a hinted ``Query`` and a
    pass-through ``AccessPlan`` per call; they now call the index
    themselves.  Answers, and the type and message of every refusal, were
    recorded on 2d5f04b (the last commit with the plan layer) over this
    file's 60-row shard.  The one intended difference: a mistyped value is
    still a ``QueryError``, but is now worded by ``ColumnSpec.validate``
    (2d5f04b leaked the encoder's text, passed a bool as an int, and let
    an integer beyond int64 out as a bare ``EncodingError``).  The range
    wrapper is gone: its recorded entries and refusals are the index's
    own ``scan``, and a range read is a typed query."""

    def test_answers(self):
        shard = make_shard()
        seed(shard)

        def fetch(entry):
            return shard.catalog.fetch_record(entry.rid)

        assert _entry(shard.index_lookup((), (7,))) == _primary(7)
        assert shard.index_lookup((), (700,)) is None
        assert shard.index_lookup((), (7,), 1) is None  # before the first groom
        assert [_entry(e) for e in shard.index_batch_lookup(
            [((), (3,)), ((), (99,)), ((), (59,))]
        )] == [_primary(3), None, _primary(59)]
        assert [_entry(e) for e in shard.index_batch_lookup([[[], [3]]])] == [
            _primary(3)
        ]
        assert shard.index_batch_lookup([]) == []
        ts = shard.clock.snapshot_ts
        assert [_entry(e) for e in shard.index.scan((), (10,), (13,), ts)] == [
            _primary(k) for k in (10, 11, 12, 13)
        ]
        assert [
            (r.values, r.begin_ts) for r in map(fetch, shard.index.scan(
                (), (10,), (13,), ts
            ))
        ] == [_record(k) for k in (10, 11, 12, 13)]
        assert shard.query(Query(ranges=(("order_id", 10, 13),))) == [
            _record(k)[0] for k in (10, 11, 12, 13)
        ]
        assert len(shard.query(Query())) == 60
        # A secondary read is a typed query; the planner picks the index.
        covered = ("order_id", "amount")
        assert shard.query(Query(
            equalities=(("customer", "c2"),), ranges=(("order_id", 10, 30),),
            projection=covered, index_hint="by_customer",
        )) == [(k, k * 10) for k in (12, 17, 22, 27)]
        assert shard.query(Query(equalities=(("region", "r1"),))) == [
            _record(k)[0] for k in range(1, 60, 3)
        ]
        assert shard.query(Query(
            equalities=(("customer", "c2"),), projection=covered,
        )) == [(k, k * 10) for k in range(2, 60, 5)]
        assert shard.query(Query(
            equalities=(("customer", "c2"), ("order_id", 12)),
            index_hint="by_customer",
        )) == [_record(12)[0]]

    def test_refusals(self):
        from repro.core.query import QueryError
        from repro.planner import PlanError
        from repro.wildfire.schema import SchemaError

        shard = make_shard()
        seed(shard)
        mistyped = "key value of the wrong type: column "
        for call, error, message in [
            # arity: raised by the index, as recorded
            (lambda: shard.index_lookup((1, 2), (3,)), QueryError,
             "point lookup must bind all 0 equality columns; got 2"),
            (lambda: shard.index_lookup((), ()), QueryError,
             "point lookup must bind all 1 sort columns; got 0"),
            (lambda: shard.index_batch_lookup([((), (1, 2))]), QueryError,
             "every point lookup must bind all 0 equality and 1 sort columns"),
            (lambda: shard.index_batch_lookup([((), (1,)), ((), ())]), QueryError,
             "every point lookup must bind all 0 equality and 1 sort columns"),
            (lambda: shard.index.scan((1,), None, None), QueryError,
             "range scan must bind all 0 equality columns; got 1"),
            (lambda: shard.index.scan((), (1, 2), None), QueryError,
             "sort bound (1, 2) longer than the 1 sort columns"),
            # mistyped: the recorded type, the new wording
            (lambda: shard.index_lookup((), ("7",)), QueryError,
             mistyped + "'order_id' expects int64, got str ('7')"),
            (lambda: shard.point_query((), (7.5,)), QueryError,
             mistyped + "'order_id' expects int64, got float (7.5)"),
            (lambda: shard.index.scan((), ("a",), None),
             QueryError, mistyped + "'order_id' expects int64, got str ('a')"),
            (lambda: shard.query(Query(ranges=(("order_id", "a", None),))),
             PlanError, "query predicate: column 'order_id' expects int64, "
             "got str ('a')"),
            # a secondary read is a typed query: the planner refuses it
            (lambda: shard.query(Query(equalities=(("customer", 5),))),
             PlanError, "query predicate: column 'customer' expects string, "
             "got int (5)"),
            (lambda: shard.query(Query(
                equalities=(("customer", "c2"), ("order_id", "x")),
                index_hint="by_customer",
            )), PlanError,
             "query predicate: column 'order_id' expects int64, got str ('x')"),
            (lambda: shard.query(Query(equalities=(("nope", 1),))),
             SchemaError, "unknown column 'nope'"),
            # the batch doors refuse what ``upsert`` refuses, in its words
            (lambda: shard.index_batch_lookup([((), ("x",))]), QueryError,
             mistyped + "'order_id' expects int64, got str ('x')"),
            (lambda: shard.index_batch_lookup([((), (3,)), ((), (True,))]),
             QueryError, mistyped + "'order_id' expects int64, got bool (True)"),
            (lambda: shard.index_batch_lookup([((), (2**70,))]), QueryError,
             f"key value of the wrong type: column 'order_id': integer {2**70} "
             "outside signed 64-bit range"),
            (lambda: shard.index.batch_lookup([(3,), (False,)], 10**9), QueryError,
             mistyped + "'order_id' expects int64, got bool (False)"),
            (lambda: shard.index.batch_lookup([(2**70,)], 10**9), QueryError,
             f"key value of the wrong type: column 'order_id': integer {2**70} "
             "outside signed 64-bit range"),
            (lambda: shard.index.batch_lookup([(3,), (4, 5)], 10**9), QueryError,
             "the keys of a batch differ in width"),
            (lambda: shard.index.batch_lookup([(3, 4)], 10**9), QueryError,
             "point lookups must bind all 1 key columns; got 2"),
            # ... and so does the typed fetch-back, should an entry ever
            # hand it such a primary key (rows: an entry's columns)
            (lambda: shard._fetch_back_rids(
                lambda row: row[1:2], [("c2", 3), ("c2", True)], [], 10**9
            ), QueryError, mistyped + "'order_id' expects int64, got bool (True)"),
            (lambda: shard._fetch_back_rids(
                lambda row: row[1:2], [("c2", 2**70)], [], 10**9
            ), QueryError,
             f"key value of the wrong type: column 'order_id': integer {2**70} "
             "outside signed 64-bit range"),
        ]:
            try:
                call()
            except Exception as exc:
                assert (type(exc), str(exc)) == (error, message)
            else:
                raise AssertionError(f"no {error.__name__}: {message}")

    def test_a_typed_query_naming_an_unknown_index_is_a_plan_error(self):
        import pytest

        from repro.planner import PlanError

        shard = make_shard()
        seed(shard)
        with pytest.raises(PlanError, match="index_hint names unknown index 'nope'"):
            shard.query(Query(equalities=(("order_id", 7),), index_hint="nope"))
