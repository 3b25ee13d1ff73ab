"""Tests for table schemas and index specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner.plan import tuple_getter
from repro.wildfire.schema import ColumnBatch, IndexSpec, SchemaError, TableSchema


def iot_schema(**overrides):
    kwargs = dict(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    kwargs.update(overrides)
    return TableSchema(**kwargs)


class TestTableSchema:
    def test_valid_schema(self):
        schema = iot_schema()
        assert schema.column_names == ("device", "msg", "reading")

    def test_primary_key_required(self):
        with pytest.raises(SchemaError):
            iot_schema(primary_key=())

    def test_sharding_key_must_be_subset_of_primary(self):
        with pytest.raises(SchemaError):
            iot_schema(sharding_key=("reading",))

    def test_unknown_key_column(self):
        with pytest.raises(SchemaError):
            iot_schema(partition_key=("nope",))

    def test_duplicate_columns(self):
        with pytest.raises(SchemaError):
            iot_schema(columns=(ColumnSpec("a"), ColumnSpec("a")))

    def test_positions(self):
        schema = iot_schema()
        assert schema.position("msg") == 1
        assert schema.positions(("reading", "device")) == (2, 0)
        with pytest.raises(SchemaError):
            schema.position("ghost")

    def test_key_extraction(self):
        schema = iot_schema()
        row = (7, 42, 99)
        primary_key_of = tuple_getter(schema.positions(schema.primary_key))
        assert primary_key_of(row) == (7, 42)

    def test_validate_row(self):
        schema = iot_schema()
        assert schema.validate_row((1, 2, 3)) == (1, 2, 3)
        with pytest.raises(SchemaError):
            schema.validate_row((1, 2))
        with pytest.raises(Exception):
            schema.validate_row((1, "text", 3))


class TestValidateRows:
    """``validate_rows`` is ``validate_row`` per row, refusals included,
    kept column-major: its batch's columns transpose back to those rows."""

    @staticmethod
    def per_row(schema, rows):
        try:
            return [schema.validate_row(row) for row in rows]
        except Exception as exc:
            return type(exc), str(exc)

    @staticmethod
    def batched(schema, rows):
        try:
            batch = schema.validate_rows(rows)
        except Exception as exc:
            return type(exc), str(exc)
        assert len(batch) == len(rows) and len(batch.columns) == len(schema.columns)
        return list(zip(*batch.columns))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(
        st.integers(-(2**64), 2**64) | st.floats() | st.booleans()
        | st.text(max_size=2) | st.binary(max_size=2) | st.none(),
        min_size=2, max_size=4,
    ), max_size=6))
    def test_same_rows_or_same_refusal_as_row_by_row(self, rows):
        schema = TableSchema(
            name="m",
            columns=(
                ColumnSpec("i"),
                ColumnSpec("f", ColumnType.FLOAT64),
                ColumnSpec("s", ColumnType.STRING),
            ),
            primary_key=("i",),
        )
        expected = self.per_row(schema, rows)
        got = self.batched(schema, rows)
        assert got == expected
        if isinstance(expected, list):
            assert [list(map(type, row)) for row in got] == [
                list(map(type, row)) for row in expected
            ]

    def test_refusals_name_the_first_bad_value_in_row_order(self):
        schema = iot_schema()
        with pytest.raises(Exception) as refused:
            schema.validate_rows([(1, 2, 3), (4, 5, "x"), (True, 2, 3)])
        assert str(refused.value) == "column 'reading' expects int64, got str ('x')"
        with pytest.raises(SchemaError, match="row has 2 values"):
            schema.validate_rows([(1, 2, 3), (1, 2)])
        empty = schema.validate_rows([])
        assert len(empty) == 0 and empty.columns == [[], [], []]
        # Any iterable of rows, a generator included.
        rows = ((d, 1, 2) for d in range(3))
        assert schema.validate_rows(rows).columns == [[0, 1, 2], [1, 1, 1], [2, 2, 2]]

    def test_a_batch_is_split_and_joined_a_column_at_a_time(self):
        batch = iot_schema().validate_rows([(d, d + 10, d + 20) for d in range(5)])
        parts = batch.split([7, 3, 7, 7, 3])
        assert list(parts) == [7, 3]  # first-seen order
        assert parts[7].columns == [[0, 2, 3], [10, 12, 13], [20, 22, 23]]
        assert len(parts[3]) == 2 and parts[3].columns == [[1, 4], [11, 14], [21, 24]]
        assert batch.split([5] * 5) == {5: batch} and batch.split([]) == {}
        assert ColumnBatch.concat([batch]) is batch
        joined = ColumnBatch.concat([parts[3], parts[7]])
        assert joined.columns == [[1, 4, 0, 2, 3], [11, 14, 10, 12, 13], [21, 24, 20, 22, 23]]


class TestIndexSpec:
    def test_build_definition_maps_types(self):
        schema = iot_schema()
        spec = IndexSpec(("device",), ("msg",), ("reading",))
        definition = spec.build_definition(schema)
        assert [c.name for c in definition.equality_columns] == ["device"]
        assert [c.name for c in definition.sort_columns] == ["msg"]
        assert [c.name for c in definition.included_columns] == ["reading"]

    def test_primary_index_must_cover_primary_key(self):
        schema = iot_schema()
        IndexSpec(("device",), ("msg",)).validate_primary(schema)
        with pytest.raises(SchemaError):
            IndexSpec(("device",), ()).validate_primary(schema)

    def test_extractor(self):
        """A row's (equality, sort, included) values, by ``positions``."""
        schema = iot_schema()
        positions = IndexSpec(("device",), ("msg",), ("reading",)).positions(schema)
        assert positions == ((0,), (1,), (2,))
        row = (7, 42, 99)
        extracted = tuple(tuple(row[p] for p in group) for group in positions)
        assert extracted == ((7,), (42,), (99,))
