"""Index definitions (paper section 4.1).

An Umzi index is declared over *equality columns* (answering equality
predicates through the hash column + offset array), *sort columns*
(answering range predicates), and optional *included columns* (enabling
index-only plans).  Either of the first two groups may be empty:

* no equality columns  -> a pure range index (no hash column, no offset
  array);
* no sort columns      -> a pure hash index.

The three definitions used throughout the paper's evaluation are provided
as constructors: :func:`i1_definition`, :func:`i2_definition`,
:func:`i3_definition`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.encoding import (
    INT64_MAX,
    INT64_MIN,
    EncodingError,
    KeyValue,
    decode_bytes,
    decode_float64,
    decode_int64,
    decode_str,
    encode_bytes,
    encode_bytes_column,
    encode_float64,
    encode_float64_column,
    encode_int64,
    encode_int64_column,
    encode_str,
    encode_str_column,
    hash_values,
)


class ColumnType(str, enum.Enum):
    """Supported key/include column types."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BYTES = "bytes"


_PYTHON_TYPES = {
    ColumnType.INT64: (int,),
    ColumnType.FLOAT64: (int, float),
    ColumnType.STRING: (str,),
    ColumnType.BYTES: (bytes,),
}

# One codec per declared column type: index and block paths encode and
# decode through these tables and never dispatch on a value's runtime
# type.  COLUMN_ENCODERS are the same encodings a whole column at a time
# (``values -> [bytes]``), for values already checked by
# :meth:`ColumnSpec.validate`.
DECODERS = {
    ColumnType.INT64: decode_int64,
    ColumnType.FLOAT64: decode_float64,
    ColumnType.STRING: decode_str,
    ColumnType.BYTES: decode_bytes,
}
ENCODERS = {
    ColumnType.INT64: encode_int64,
    ColumnType.FLOAT64: encode_float64,
    ColumnType.STRING: encode_str,
    ColumnType.BYTES: encode_bytes,
}
COLUMN_ENCODERS = {
    ColumnType.INT64: encode_int64_column,
    ColumnType.FLOAT64: encode_float64_column,
    ColumnType.STRING: encode_str_column,
    ColumnType.BYTES: encode_bytes_column,
}


@dataclass(frozen=True)
class ColumnSpec:
    """A named, typed column participating in an index definition."""

    name: str
    ctype: ColumnType = ColumnType.INT64

    def validate(self, value: KeyValue) -> KeyValue:
        """Type- and domain-check (and normalize) one value for this column.

        This is the only check a value gets: the write path encodes what
        passed here without looking again, so everything the encodings
        cannot represent (integers beyond int64, NaN) is refused here.
        """
        ctype = self.ctype
        if isinstance(value, bool) or not isinstance(value, _PYTHON_TYPES[ctype]):
            raise EncodingError(
                f"column {self.name!r} expects {ctype.value}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if ctype is ColumnType.INT64:
            if not INT64_MIN <= value <= INT64_MAX:
                raise EncodingError(
                    f"column {self.name!r}: integer {value} outside "
                    "signed 64-bit range"
                )
        elif ctype is ColumnType.FLOAT64:
            value = float(value)
            if value != value:
                raise EncodingError(f"column {self.name!r}: NaN is not orderable")
        return value

    def validate_column(self, values: Sequence[KeyValue]) -> Optional[Sequence]:
        """:meth:`validate` for a whole column in C-speed passes: the
        normalized column, or ``None`` where a value needs :meth:`validate`
        after all (a subclass such as bool, an int beyond int64, NaN --
        or ``inf`` beside ``-inf``), which then words the refusal."""
        ctype = self.ctype
        if not set(map(type, values)).issubset(_PYTHON_TYPES[ctype]):
            return None
        if ctype is ColumnType.INT64:
            low, high = min(values, default=0), max(values, default=0)
            return values if INT64_MIN <= low and high <= INT64_MAX else None
        if ctype is ColumnType.FLOAT64:
            try:
                values = list(map(float, values))
            except OverflowError:
                return None
            total = sum(values)  # NaN if any value is NaN
            return values if total == total else None
        return values


# What an encoder raises when handed a value of another type than its own.
WRONG_TYPE_ERRORS = (AttributeError, TypeError, struct.error)


def encode_typed(
    specs: Sequence[ColumnSpec], values: Iterable[KeyValue]
) -> bytes:
    """Concatenated encodings of ``values`` under their columns' types."""
    return b"".join([ENCODERS[spec.ctype](v) for spec, v in zip(specs, values)])


def encode_search_key(
    specs: Sequence[ColumnSpec], values: Sequence[KeyValue]
) -> bytes:
    """:func:`encode_typed` for values a caller searches with.

    They were never validated, so what :meth:`ColumnSpec.validate` would
    refuse at ``upsert`` is refused here too, as its ``EncodingError``
    naming column, declared type and value.  The encoders already fail
    on every such value but a bool (an int to them), which costs a lookup
    one check; the wording is worked out only once something was refused.
    An int on a FLOAT64 column encodes as the float it was stored as.
    """
    try:
        if bool not in map(type, values):
            return encode_typed(specs, values)
    except (*WRONG_TYPE_ERRORS, EncodingError):
        pass
    for spec, value in zip(specs, values):
        spec.validate(value)
    raise EncodingError(f"values {tuple(values)!r} cannot be encoded as a key")


class IndexDefinitionError(ValueError):
    """Invalid index definition (e.g. duplicate columns, no key columns)."""


@dataclass(frozen=True)
class IndexDefinition:
    """Declares the shape of one Umzi index.

    Parameters
    ----------
    equality_columns:
        Columns answered by equality predicates; their values are hashed
        into the hash column.  May be empty (pure range index).
    sort_columns:
        Columns answered by range predicates; ordered after the equality
        columns in every run.  May be empty (pure hash index).
    included_columns:
        Non-key columns stored in the index to enable index-only plans.
    hash_bits:
        Size of the offset array as ``2**hash_bits`` buckets over the most
        significant bits of the hash column (paper section 4.2).  Ignored
        when there are no equality columns.
    """

    equality_columns: Tuple[ColumnSpec, ...] = ()
    sort_columns: Tuple[ColumnSpec, ...] = ()
    included_columns: Tuple[ColumnSpec, ...] = ()
    hash_bits: int = 8

    def __post_init__(self) -> None:
        if not self.equality_columns and not self.sort_columns:
            raise IndexDefinitionError(
                "an index needs at least one equality or sort column"
            )
        names = [c.name for c in self.all_columns]
        if len(set(names)) != len(names):
            raise IndexDefinitionError(f"duplicate column names in {names}")
        if self.has_hash_column and not 1 <= self.hash_bits <= 24:
            raise IndexDefinitionError(
                f"hash_bits must be within [1, 24], got {self.hash_bits}"
            )

    # -- shape accessors -----------------------------------------------------

    @property
    def has_hash_column(self) -> bool:
        """Whether runs carry a hash column (i.e. equality columns exist)."""
        return bool(self.equality_columns)

    @property
    def key_columns(self) -> Tuple[ColumnSpec, ...]:
        return self.equality_columns + self.sort_columns

    @property
    def all_columns(self) -> Tuple[ColumnSpec, ...]:
        return self.key_columns + self.included_columns

    @property
    def offset_array_size(self) -> int:
        return (1 << self.hash_bits) if self.has_hash_column else 0

    def column_index(self) -> Mapping[str, int]:
        """Map column name -> position among key columns (synopsis layout)."""
        return {spec.name: i for i, spec in enumerate(self.key_columns)}

    # -- value validation / encoding ------------------------------------------

    def validate_key(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
    ) -> Tuple[Tuple[KeyValue, ...], Tuple[KeyValue, ...]]:
        """Type-check a full key; returns normalized value tuples."""
        if len(equality_values) != len(self.equality_columns):
            raise EncodingError(
                f"expected {len(self.equality_columns)} equality values, "
                f"got {len(equality_values)}"
            )
        if len(sort_values) != len(self.sort_columns):
            raise EncodingError(
                f"expected {len(self.sort_columns)} sort values, "
                f"got {len(sort_values)}"
            )
        eq = tuple(
            spec.validate(v) for spec, v in zip(self.equality_columns, equality_values)
        )
        st = tuple(
            spec.validate(v) for spec, v in zip(self.sort_columns, sort_values)
        )
        return eq, st

    def validate_includes(
        self, include_values: Sequence[KeyValue]
    ) -> Tuple[KeyValue, ...]:
        if len(include_values) != len(self.included_columns):
            raise EncodingError(
                f"expected {len(self.included_columns)} included values, "
                f"got {len(include_values)}"
            )
        return tuple(
            spec.validate(v)
            for spec, v in zip(self.included_columns, include_values)
        )

    def hash_of(self, equality_values: Sequence[KeyValue]) -> int:
        """The 64-bit hash column value for a set of equality values."""
        if not self.has_hash_column:
            return 0
        return hash_values((encode_typed(self.equality_columns, equality_values),))

    def describe(self) -> str:
        """One-line human-readable summary (used in stats/CLI output)."""
        parts: List[str] = []
        if self.equality_columns:
            parts.append("eq=" + ",".join(c.name for c in self.equality_columns))
        if self.sort_columns:
            parts.append("sort=" + ",".join(c.name for c in self.sort_columns))
        if self.included_columns:
            parts.append("incl=" + ",".join(c.name for c in self.included_columns))
        return "IndexDefinition(" + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# The paper's three evaluation definitions (section 8.1), all-int64 columns.
# ---------------------------------------------------------------------------


def i1_definition(hash_bits: int = 8) -> IndexDefinition:
    """I1: one equality column, one sort column, one included column."""
    return IndexDefinition(
        equality_columns=(ColumnSpec("eq0"),),
        sort_columns=(ColumnSpec("sort0"),),
        included_columns=(ColumnSpec("incl0"),),
        hash_bits=hash_bits,
    )


def i2_definition(hash_bits: int = 8) -> IndexDefinition:
    """I2: two equality columns, one included column."""
    return IndexDefinition(
        equality_columns=(ColumnSpec("eq0"), ColumnSpec("eq1")),
        included_columns=(ColumnSpec("incl0"),),
        hash_bits=hash_bits,
    )


def i3_definition(hash_bits: int = 8) -> IndexDefinition:
    """I3: one equality column, one included column."""
    return IndexDefinition(
        equality_columns=(ColumnSpec("eq0"),),
        included_columns=(ColumnSpec("incl0"),),
        hash_bits=hash_bits,
    )


__all__ = [
    "COLUMN_ENCODERS",
    "DECODERS",
    "ENCODERS",
    "ColumnSpec",
    "ColumnType",
    "IndexDefinition",
    "IndexDefinitionError",
    "WRONG_TYPE_ERRORS",
    "encode_search_key",
    "encode_typed",
    "i1_definition",
    "i2_definition",
    "i3_definition",
]
