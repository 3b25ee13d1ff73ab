"""A plan bound from a cached template == a plan compiled from scratch.

The smart planner compiles a query *shape* once per table
(``ShardIndexes.plan_templates``, one dict shared by the table's shards)
and binds its values once per query (``Binding``, handed to every shard
the query reaches).  A template
holds nothing that depends on data, so for every shape the golden
workload and the e2e benchmark use, the ``explain()`` of a template-bound
plan must equal that of a plan compiled with an empty template dict --
before and after grooms, post-grooms and evolves move the synopses, after
a key-column update ghosts a key (which moves no plan: the stamp is the
publication sequences alone), and after ``add_secondary`` changes the set
of candidates.
"""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.encoding import EncodingError
from repro.planner import PlanError, Query
from repro.planner.plan import Binding
from repro.planner.smart import TEMPLATE_LIMIT
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema

from tests.planner.test_explain_golden import WORKLOAD

SCHEMA = TableSchema(
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
SECONDARIES = {
    "by_customer": IndexSpec(
        equality_columns=("customer",), included_columns=("amount",)
    ),
    "by_region": IndexSpec(
        sort_columns=("region",), included_columns=("amount",)
    ),
}
# The four shapes benchmarks/e2e/workloads.py sends (typed_scatter).
E2E_SHAPES = (
    Query(equalities=(("customer", "c2"),)),
    Query(
        ranges=(("region", "r1", "r1"), ("amount", 0, 200)),
        projection=("order_id", "amount"),
    ),
    Query(ranges=(("order_id", 10, 40),)),
    Query(equalities=(("order_id", 7),)),
)
OPEN_BOUNDS = (
    Query(ranges=(("order_id", None, 20),)),
    Query(ranges=(("order_id", 20, None),)),
    Query(equalities=(("order_id", 7),), index_hint="primary"),
)
QUERIES = WORKLOAD + E2E_SHAPES + OPEN_BOUNDS


def make_shard(secondaries=SECONDARIES):
    return WildfireShard(
        SCHEMA,
        IndexSpec(sort_columns=("order_id",)),
        config=ShardConfig(post_groom_every=3, secondary_indexes=secondaries),
    )


def rows(keys, generation=0):
    return [
        (i, f"c{(i + generation) % 5}", f"r{i % 3}", i * 10 + generation)
        for i in keys
    ]


def plan_for(shard, query):
    """The shard's plan for ``query``, bound to its type-checked values."""
    return shard.plan_query(query, Binding(shard.schema, query))


def assert_templates_match_fresh_compiles(shard):
    templates = shard.indexes.plan_templates
    for query in QUERIES:
        shard.explain(query)  # compiles the shape if it is not there yet
        assert query.shape in templates
        bound = shard.explain(query)
        again = shard.explain(query)
        kept = dict(templates)
        templates.clear()
        fresh = shard.explain(query)
        templates.update(kept)
        assert bound == again == fresh, query


class TestTemplateEqualsFreshCompile:
    def test_across_synopsis_changes_and_ghosts(self):
        shard = make_shard()
        shard.ingest(rows(range(60)))
        shard.run_cycles(2)  # groomed runs only
        assert_templates_match_fresh_compiles(shard)
        before = {q: shard.explain(q) for q in QUERIES}

        shard.ingest(rows(range(60, 90)))
        shard.run_cycles(4)  # a post-groom + evolve: both zones, new synopses
        assert shard.index.stats().post_groomed_run_count >= 1
        assert_templates_match_fresh_compiles(shard)
        assert any(shard.explain(q) != before[q] for q in QUERIES)  # costs moved

        covered = Query(
            equalities=(("customer", "c2"),), projection=("order_id", "amount")
        )
        assert shard.explain(covered)["index_only"]
        shard.ingest(rows([2], generation=1))  # customer c2 -> c3: a ghost
        shard.run_cycles(1)
        assert shard.indexes.pending_ghosts()["by_customer"] == 1
        # The stamp reads publications only: a ghost moves no plan.
        assert shard.synopses.stamp() == [
            shard_index.index.lifecycle.version_seq
            for shard_index in shard.indexes.all()
        ]
        assert shard.explain(covered)["index_only"]  # same template
        assert_templates_match_fresh_compiles(shard)

    def test_add_secondary_clears_the_templates(self):
        shard = make_shard(secondaries={"by_customer": SECONDARIES["by_customer"]})
        query = Query(equalities=(("customer", "c1"),))
        assert {c["index"] for c in shard.explain(query)["candidates"]} == {
            "primary", "by_customer",
        }
        assert shard.indexes.plan_templates
        shard.indexes.add_secondary(
            "by_region", SECONDARIES["by_region"], shard.hierarchy,
            shard.config.umzi,
        )
        assert not shard.indexes.plan_templates
        assert "by_region" in {
            c["index"] for c in shard.explain(query)["candidates"]
        }

    def test_the_template_dict_is_bounded(self):
        shard = make_shard()
        for width in range(TEMPLATE_LIMIT + 10):
            shard.explain(Query(
                equalities=(("order_id", 1),),
                projection=("order_id",) * (width + 1),
            ))
        assert len(shard.indexes.plan_templates) <= TEMPLATE_LIMIT

    def test_binding_shares_the_compiled_half(self):
        shard = make_shard()
        shard.ingest(rows(range(30)))
        shard.run_cycles(2)
        one = plan_for(shard, Query(equalities=(("customer", "c1"),)))
        two = plan_for(shard, Query(equalities=(("customer", "c4"),)))
        assert one.equality_values == ("c1",) and two.equality_values == ("c4",)
        assert [(p.low, p.high) for p in two.record_checks] == [("c4", "c4")]
        assert one.record_pk is two.record_pk and one.entry_pk is two.entry_pk
        assert one.record_row is None  # the full row is not copied


# ---------------------------------------------------------------------------
# typed predicate values (a mistyped value used to be a silent wrong answer)
# ---------------------------------------------------------------------------


FLOAT_SCHEMA = TableSchema(
    name="readings",
    columns=(ColumnSpec("sensor"), ColumnSpec("level", ColumnType.FLOAT64)),
    primary_key=("sensor",),
    sharding_key=("sensor",),
)


def loaded_table():
    table = ShardedTable(
        SCHEMA,
        IndexSpec(sort_columns=("order_id",)),
        num_shards=2,
        config=ShardConfig(secondary_indexes=SECONDARIES),
    )
    table.ingest(rows(range(2, 9)))
    for _ in range(2):
        table.tick()
    return table


class TestPredicateValuesAreTypeChecked:
    MISTYPED = (
        Query(equalities=(("order_id", 4.0),)),  # routed on the float's hash
        Query(ranges=(("order_id", 1.5, 9.5),)),  # matched nothing
        Query(equalities=(("order_id", "4"),)),  # leaked TypeError
        Query(ranges=(("order_id", "a", "b"),)),  # leaked ValueError
        Query(equalities=(("customer", 7),)),  # leaked AttributeError
    )

    def test_ingest_refuses_what_queries_used_to_accept(self):
        with pytest.raises(EncodingError):
            loaded_table().ingest([(4.0, "c", "r", 1)])

    @pytest.mark.parametrize("query", MISTYPED, ids=repr)
    def test_a_mistyped_value_is_a_plan_error(self, query):
        table = loaded_table()
        for front_door in (table, table.shards[0]):
            with pytest.raises(PlanError) as caught:
                front_door.query(query)
            column = query.predicate_columns()[0]
            expected = "string" if column == "customer" else "int64"
            assert column in str(caught.value) and expected in str(caught.value)
        with pytest.raises(PlanError):
            table.shards[0].explain(query)

    def test_well_typed_twins_answer(self):
        table = loaded_table()
        assert table.query(Query(equalities=(("order_id", 4),))) == rows([4])
        assert table.query(Query(ranges=(("order_id", 2, 8),))) == rows(range(2, 9))
        assert table.query(Query(ranges=(("order_id", None, 3),))) == rows([2, 3])
        assert table.query(Query(ranges=(("order_id", 7, None),))) == rows([7, 8])

    def test_int_into_float_column_is_accepted_and_normalised(self):
        table = ShardedTable(
            FLOAT_SCHEMA, IndexSpec(sort_columns=("sensor",)), num_shards=3,
            config=ShardConfig(secondary_indexes={
                "by_level": IndexSpec(sort_columns=("level",)),
            }),
        )
        table.ingest([(s, s / 2) for s in range(12)])
        for _ in range(2):
            table.tick()
        assert Binding(
            FLOAT_SCHEMA, Query(equalities=(("level", 2),), ranges=(("sensor", None, 3),))
        ).values == ((2.0,), ((None, 3),))
        assert table.query(Query(equalities=(("level", 2),))) == [(4, 2.0)]
        assert table.query(Query(ranges=(("level", 1, 2),))) == [
            (2, 1.0), (3, 1.5), (4, 2.0),
        ]

    def test_unknown_column_is_still_a_schema_error(self):
        with pytest.raises(SchemaError):
            loaded_table().query(Query(equalities=(("nope", 1),)))
