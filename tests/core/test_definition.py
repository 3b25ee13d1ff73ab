"""Tests for index definitions (paper section 4.1)."""

import enum

import pytest

from repro.core.definition import (
    ColumnSpec,
    ColumnType,
    IndexDefinition,
    IndexDefinitionError,
    i1_definition,
    i2_definition,
    i3_definition,
)
from repro.core.encoding import EncodingError


class TestShapes:
    def test_i1_shape(self):
        d = i1_definition()
        assert len(d.equality_columns) == 1
        assert len(d.sort_columns) == 1
        assert len(d.included_columns) == 1
        assert d.has_hash_column

    def test_i2_shape(self):
        d = i2_definition()
        assert len(d.equality_columns) == 2
        assert len(d.sort_columns) == 0

    def test_i3_shape(self):
        d = i3_definition()
        assert len(d.equality_columns) == 1
        assert len(d.sort_columns) == 0

    def test_pure_range_index_has_no_hash(self):
        d = IndexDefinition(sort_columns=(ColumnSpec("s"),))
        assert not d.has_hash_column
        assert d.offset_array_size == 0
        assert d.hash_of(()) == 0

    def test_pure_hash_index(self):
        d = IndexDefinition(equality_columns=(ColumnSpec("e"),))
        assert d.has_hash_column
        assert d.offset_array_size == 256  # default 8 bits

    def test_offset_array_size_follows_hash_bits(self):
        d = IndexDefinition(equality_columns=(ColumnSpec("e"),), hash_bits=4)
        assert d.offset_array_size == 16


class TestValidation:
    def test_empty_definition_rejected(self):
        with pytest.raises(IndexDefinitionError):
            IndexDefinition()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(IndexDefinitionError):
            IndexDefinition(
                equality_columns=(ColumnSpec("x"),),
                sort_columns=(ColumnSpec("x"),),
            )

    def test_bad_hash_bits_rejected(self):
        with pytest.raises(IndexDefinitionError):
            IndexDefinition(equality_columns=(ColumnSpec("e"),), hash_bits=0)
        with pytest.raises(IndexDefinitionError):
            IndexDefinition(equality_columns=(ColumnSpec("e"),), hash_bits=32)

    def test_validate_key_arity(self):
        d = i1_definition()
        with pytest.raises(EncodingError):
            d.validate_key((), (1,))
        with pytest.raises(EncodingError):
            d.validate_key((1,), ())

    def test_validate_key_types(self):
        d = i1_definition()  # int64 columns
        with pytest.raises(EncodingError):
            d.validate_key(("text",), (1,))
        with pytest.raises(EncodingError):
            d.validate_key((True,), (1,))  # bool is not an int64 key

    def test_float_column_accepts_int_and_normalizes(self):
        d = IndexDefinition(
            equality_columns=(ColumnSpec("f", ColumnType.FLOAT64),)
        )
        eq, _ = d.validate_key((3,), ())
        assert eq == (3.0,) and isinstance(eq[0], float)

    def test_validate_includes(self):
        d = i1_definition()
        assert d.validate_includes((5,)) == (5,)
        with pytest.raises(EncodingError):
            d.validate_includes(())


class TestValidateColumn:
    """``validate_column`` vouches for a column or hands it to ``validate``."""

    class Small(enum.IntEnum):
        ONE = 1

    @pytest.mark.parametrize("ctype,column,normalized", [
        (ColumnType.INT64, (1, -(2**63), 2**63 - 1), (1, -(2**63), 2**63 - 1)),
        (ColumnType.FLOAT64, (1, -0.0, float("inf"), 2**70), [1.0, -0.0, float("inf"), 2.0**70]),
        (ColumnType.STRING, ("", "a\x00"), ("", "a\x00")),
        (ColumnType.BYTES, (b"", b"\x00"), (b"", b"\x00")),
        (ColumnType.INT64, (), ()),
    ])
    def test_a_clean_column_is_normalized_at_once(self, ctype, column, normalized):
        spec = ColumnSpec("c", ctype)
        checked = spec.validate_column(column)
        assert checked == normalized
        assert [type(v) for v in checked] == [type(v) for v in normalized]
        assert list(checked) == [spec.validate(v) for v in column]

    @pytest.mark.parametrize("ctype,column", [
        (ColumnType.INT64, (1, True)),  # bool: an int subclass
        (ColumnType.INT64, (1, Small.ONE)),  # passes validate, kept as is
        (ColumnType.INT64, (1, 2**63)),
        (ColumnType.INT64, (-(2**63) - 1, 1)),
        (ColumnType.INT64, (1, 1.0)),
        (ColumnType.FLOAT64, (1.0, float("nan"))),
        (ColumnType.FLOAT64, (float("inf"), float("-inf"))),  # passes validate
        (ColumnType.FLOAT64, (1.0, 2**1100)),  # float() overflows
        (ColumnType.FLOAT64, (1.0, False)),
        (ColumnType.STRING, ("a", b"a")),
        (ColumnType.BYTES, (b"a", bytearray(b"a"))),
    ])
    def test_any_doubt_is_left_to_validate(self, ctype, column):
        assert ColumnSpec("c", ctype).validate_column(column) is None


class TestHashing:
    def test_hash_deterministic(self):
        d = i1_definition()
        assert d.hash_of((42,)) == d.hash_of((42,))

    def test_hash_differs_by_value(self):
        d = i1_definition()
        assert d.hash_of((1,)) != d.hash_of((2,))

    def test_i2_hashes_both_columns(self):
        d = i2_definition()
        assert d.hash_of((1, 2)) != d.hash_of((2, 1))


class TestIntrospection:
    def test_describe_mentions_columns(self):
        text = i1_definition().describe()
        assert "eq0" in text and "sort0" in text and "incl0" in text

    def test_key_and_all_columns(self):
        d = i1_definition()
        assert [c.name for c in d.key_columns] == ["eq0", "sort0"]
        assert [c.name for c in d.all_columns] == ["eq0", "sort0", "incl0"]
