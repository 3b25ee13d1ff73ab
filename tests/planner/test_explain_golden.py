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

    def test_key_column_updates_disqualify_index_only(self):
        # The ISSUE 10 bugfix: when a *secondary key* column changes
        # across versions, the old entry is a ghost only a record
        # re-check can filter -- an index-only scan cannot see the newer
        # entry living under a different key.  The shard counts the
        # ghost at groom time, and the planner refuses index-only on the
        # ghosted secondaries, so every answer is exact.
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
        ghost = Query(ranges=(("region", "r0", "r0"),),
                      projection=("region", "amount"))
        plan = smart.explain(ghost)
        assert not plan["index_only"]
        assert plan["fetch_back"]
        assert smart.query(ghost) == baseline.query(ghost)

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
