"""Unit tests for the plan layer (repro.planner.plan): typed queries,
candidate shaping and residual classification.
"""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner.plan import (
    Binding,
    PlanError,
    Query,
    candidate_shape,
    entry_offset,
    plan_prototype,
)
from repro.wildfire.engine import ShardConfig, WildfireShard, _within
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard():
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


class TestQueryValidation:
    def test_duplicate_column_rejected(self):
        with pytest.raises(PlanError):
            Query(equalities=(("a", 1),), ranges=(("a", 0, 2),))

    @pytest.mark.parametrize("field,value", [
        ("mode", "point"),
        ("sort_lower", (1,)),
        ("sort_upper", (9,)),
        ("batch_keys", (((), (1,)),)),
        ("fetch_records", False),
    ], ids=["mode", "sort_lower", "sort_upper", "batch_keys", "fetch_records"])
    def test_wrapper_fields_are_gone(self, field, value):
        """Only typed queries are planned: the wrapper methods call the
        index themselves, so a Query cannot pin a mode, raw sort bounds
        or a key batch any more."""
        with pytest.raises(TypeError):
            Query(index_hint="primary", **{field: value})

    def test_predicate_matching(self):
        """A bound predicate is checked by ``_within``: an equality binds
        its value into both ends of the range."""
        def matches(value, low, high):
            return _within(["row"], [value], low, high) == ["row"]

        assert matches(5, 5, 5) and not matches(6, 5, 5)
        assert matches(2, 2, 4) and matches(4, 2, 4)
        assert not matches(1, 2, 4) and not matches(5, 2, 4)
        assert matches(-100, None, 4) and not matches(5, None, 4)
        assert matches(100, 2, None) and not matches(1, 2, None)
        assert matches(-100, None, None)


class TestEntryOffsets:
    def test_offsets_cover_suffixed_secondary_spec(self):
        shard = make_shard()
        spec = shard.indexes.get("by_customer").spec
        # Entry values are equality | sort | include.
        assert entry_offset(spec, "customer") == 0
        # The primary key was suffixed into the sort columns.
        assert entry_offset(spec, "order_id") == 1
        assert entry_offset(spec, "amount") == 2
        assert entry_offset(spec, "region") is None


class TestCandidateShapes:
    def test_primary_point(self):
        shard = make_shard()
        query = Query(equalities=(("order_id", 7),))
        shape = candidate_shape(
            query, shard.schema, shard.indexes.get("primary"), is_primary=True,
        )
        assert shape.mode == "point"
        # A shape holds no values; a call binds them.
        bound = shape.key_values(*Binding(shard.schema, query).values)
        assert bound["sort_values"] == (7,)
        assert shape.bound_prefix == 1
        assert shape.entry_residuals == shape.record_residuals == ()

    def test_unbound_equality_column_disqualifies(self):
        shard = make_shard()
        shape = candidate_shape(
            Query(ranges=(("amount", 0, 10),)),
            shard.schema, shard.indexes.get("by_customer"), is_primary=False,
        )
        assert shape is None

    def test_range_consumed_on_first_unbound_sort_column(self):
        shard = make_shard()
        query = Query(ranges=(("region", "a", "m"),))
        shape = candidate_shape(
            query, shard.schema, shard.indexes.get("by_region"), is_primary=False,
        )
        assert shape.mode == "scan"
        assert shape.range_column == "region"
        bound = shape.key_values(*Binding(shard.schema, query).values)
        assert bound["sort_lower"] == ("a",) and bound["sort_upper"] == ("m",)

    def test_residual_split_entry_vs_record(self):
        shard = make_shard()
        # amount is an included column of by_customer (entry residual);
        # region is not in the entry at all (record residual).
        shape = candidate_shape(
            Query(equalities=(("customer", "c1"), ("region", "r1")),
                  ranges=(("amount", 0, 10),)),
            shard.schema, shard.indexes.get("by_customer"), is_primary=False,
        )
        assert [p.column for p in shape.entry_residuals] == ["amount"]
        assert [p.column for p in shape.record_residuals] == ["region"]

    def test_covering_projection_detected(self):
        shard = make_shard()
        covered = candidate_shape(
            Query(equalities=(("customer", "c1"),),
                  projection=("order_id", "amount")),
            shard.schema, shard.indexes.get("by_customer"), is_primary=False,
        )
        assert covered.covers_projection
        full = candidate_shape(
            Query(equalities=(("customer", "c1"),)),
            shard.schema, shard.indexes.get("by_customer"), is_primary=False,
        )
        assert not full.covers_projection  # region is not in the entry

    def test_unknown_predicate_column_raises_schema_error(self):
        from repro.wildfire.schema import SchemaError

        shard = make_shard()
        with pytest.raises(SchemaError):
            candidate_shape(
                Query(equalities=(("nope", 1),)),
                shard.schema, shard.indexes.get("primary"), is_primary=True,
            )


class TestShapeToPlan:
    """The plan a candidate shape compiles to (``plan_prototype``); a query
    binds its values into it (``AccessPlan.bind``)."""

    def test_fetch_back_rechecks_every_predicate(self):
        shard = make_shard()
        query = Query(equalities=(("customer", "c1"),),
                      ranges=(("amount", 0, 10),))
        shape = candidate_shape(
            query, shard.schema, shard.indexes.get("by_customer"),
            is_primary=False,
        )
        plan = plan_prototype(
            shape, query, shard.schema, shard.indexes.get("by_customer"),
            planner="smart", index_only=False,
        )
        assert plan.fetch_back
        assert sorted(p.column for p in plan.record_checks) == [
            "amount", "customer",
        ]

    def test_index_only_has_no_record_checks(self):
        # A primary entry is its row's version: nothing to re-check.
        shard = make_shard()
        query = Query(ranges=(("order_id", 3, 9),), projection=("order_id",))
        primary = shard.indexes.get("primary")
        shape = candidate_shape(query, shard.schema, primary, is_primary=True)
        plan = plan_prototype(
            shape, query, shard.schema, primary,
            planner="smart", index_only=True,
        )
        assert plan.index_only and not plan.fetch_back
        assert plan.record_checks == ()
        assert plan.entry_row((7,)) == (7,)
        assert plan.entry_pk((7,)) == (7,)

    def test_secondary_index_only_rechecks_every_predicate(self):
        # A doubtful hit of a moved row is answered by the primary, and
        # its record must pass every predicate, as in a fetch-back.
        shard = make_shard()
        query = Query(equalities=(("customer", "c1"),),
                      ranges=(("amount", 10, 90),),
                      projection=("order_id", "amount"))
        shape = candidate_shape(
            query, shard.schema, shard.indexes.get("by_customer"),
            is_primary=False,
        )
        plan = plan_prototype(
            shape, query, shard.schema, shard.indexes.get("by_customer"),
            planner="smart", index_only=True,
        )
        assert plan.index_only and not plan.fetch_back
        assert [p.column for p in plan.record_checks] == ["customer", "amount"]
        assert [p.column for p in plan.entry_residuals] == ["amount"]
        # Entry columns are (customer | order_id | amount): the row and the
        # primary key come straight out of them.
        assert plan.entry_row(("c1", 7, 50)) == (7, 50)
        assert plan.entry_pk(("c1", 7, 50)) == (7,)
        # A record the primary answers with is projected by its own getter.
        assert plan.record_row((7, "c1", "r0", 50)) == (7, 50)

    def test_pk_slots_always_resolvable(self):
        shard = make_shard()
        for name in shard.indexes.names():
            query = (
                Query(equalities=(("order_id", 1),)) if name == "primary"
                else Query(equalities=(("customer", "c"),))
                if name == "by_customer"
                else Query(equalities=(("region", "r"),))
            )
            shape = candidate_shape(
                query, shard.schema, shard.indexes.get(name),
                is_primary=name == "primary",
            )
            plan = plan_prototype(
                shape, query, shard.schema, shard.indexes.get(name),
                planner="smart", index_only=False,
            )
            width = len(shard.indexes.get(name).index.definition.all_columns)
            assert len(plan.entry_pk(tuple(range(width)))) == 1
