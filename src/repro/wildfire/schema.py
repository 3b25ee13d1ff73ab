"""Table schemas (paper section 2.1).

A Wildfire table is defined with a primary key, a sharding key (a subset of
the primary key, routing records to shards), and optionally a partition key
(organizing post-groomed data for analytics; typically different from the
sharding key -- e.g. device id shards, date partitions).

Wildfire adds three hidden columns to every table: ``beginTS`` (set by the
groomer), ``endTS`` (set by the post-groomer when a newer version of the
key lands), and ``prevRID`` (the previous version's RID); they live on
:class:`~repro.wildfire.record.Record`, not in the user schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.definition import ColumnSpec, IndexDefinition
from repro.core.encoding import KeyValue, columns_of


class SchemaError(ValueError):
    """Invalid table schema or index specification."""


class ColumnBatch:
    """Rows ``schema.validate_rows`` accepted, column-major: ``columns[i]``
    holds every row's normalized value of column ``i``, ``len()`` is the
    row count and iterating yields the rows.  A transaction of ``schema``
    stages the batch as it is; any other batch is validated."""

    __slots__ = ("columns", "schema")

    def __init__(self, columns: List[List[KeyValue]], schema: Optional[TableSchema] = None) -> None:
        self.columns = columns
        self.schema = schema

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Tuple[KeyValue, ...]]:
        return zip(*self.columns, strict=True)

    def split(self, keys: Sequence[int]) -> Dict[int, "ColumnBatch"]:
        """The rows grouped by ``keys``, one a row, in first-seen key order."""
        parts = dict.fromkeys(keys, self)
        if len(parts) > 1:
            for key in parts:
                rows = list(compress(range(len(keys)), map(key.__eq__, keys)))
                parts[key] = ColumnBatch([list(map(column.__getitem__, rows))
                                          for column in self.columns], self.schema)
        return parts

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The rows of batches of one schema, one after another (at least one)."""
        if len(batches) == 1:
            return batches[0]
        return ColumnBatch([list(chain.from_iterable(columns)) for columns in zip(
            *[batch.columns for batch in batches])], batches[0].schema)


@dataclass(frozen=True)
class TableSchema:
    """Columns plus primary / sharding / partition key declarations."""

    name: str
    columns: Tuple[ColumnSpec, ...]
    primary_key: Tuple[str, ...]
    sharding_key: Tuple[str, ...] = ()
    partition_key: Tuple[str, ...] = ()
    # Derived once (columns never change): column name -> position.
    _position: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        known = set(names)
        if not self.primary_key:
            raise SchemaError("a Wildfire table requires a primary key")
        for group, label in (
            (self.primary_key, "primary key"),
            (self.sharding_key, "sharding key"),
            (self.partition_key, "partition key"),
        ):
            for column in group:
                if column not in known:
                    raise SchemaError(f"{label} column {column!r} not in schema")
        if not set(self.sharding_key) <= set(self.primary_key):
            raise SchemaError("the sharding key must be a subset of the primary key")
        object.__setattr__(  # the dataclass is frozen
            self, "_position", {name: i for i, name in enumerate(names)}
        )

    # -- positional access ---------------------------------------------------------

    def position(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise SchemaError(f"unknown column {column!r}") from None

    def positions(self, columns: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.position(c) for c in columns)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def validate_row(self, values: Sequence[KeyValue]) -> Tuple[KeyValue, ...]:
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values; schema {self.name!r} has "
                f"{len(self.columns)} columns"
            )
        return tuple(
            spec.validate(value) for spec, value in zip(self.columns, values)
        )

    def validate_rows(self, rows: Iterable[Sequence[KeyValue]]) -> ColumnBatch:
        """``[validate_row(row) for row in rows]`` as a :class:`ColumnBatch`,
        checked a column at a time; any doubt (an arity, a column
        :meth:`ColumnSpec.validate_column` does not vouch for) falls back
        to exactly that, refusal included."""
        rows = list(rows)  # read twice below
        width = range(len(self.columns))
        if set(map(len, rows)) == {len(self.columns)}:
            columns = list(map(ColumnSpec.validate_column, self.columns,
                               columns_of(rows, width)))
            if None not in columns:
                return ColumnBatch(columns, self)
        return ColumnBatch(columns_of([self.validate_row(row) for row in rows], width), self)


@dataclass(frozen=True)
class IndexSpec:
    """Maps an index definition onto table columns.

    ``equality_columns + sort_columns`` must equal the table's primary key
    when the index serves as the primary index (the paper's assumption
    throughout).
    """

    equality_columns: Tuple[str, ...] = ()
    sort_columns: Tuple[str, ...] = ()
    included_columns: Tuple[str, ...] = ()
    hash_bits: int = 8

    def build_definition(self, schema: TableSchema) -> IndexDefinition:
        def specs(names: Tuple[str, ...]) -> Tuple[ColumnSpec, ...]:
            return tuple(schema.columns[schema.position(n)] for n in names)

        return IndexDefinition(
            equality_columns=specs(self.equality_columns),
            sort_columns=specs(self.sort_columns),
            included_columns=specs(self.included_columns),
            hash_bits=self.hash_bits,
        )

    def validate_primary(self, schema: TableSchema) -> None:
        key_columns = set(self.equality_columns) | set(self.sort_columns)
        if key_columns != set(schema.primary_key):
            raise SchemaError(
                f"primary index key columns {sorted(key_columns)} must equal "
                f"the table primary key {sorted(schema.primary_key)}"
            )

    def with_primary_key_suffix(self, schema: TableSchema) -> "IndexSpec":
        """Append any missing primary-key columns to the sort columns.

        Secondary index keys are not unique on their own; suffixing the
        primary key makes every (secondary key, primary key) pair unique so
        reconciliation collapses *versions of one record* rather than
        distinct records sharing a secondary value.  Versions of the same
        record still share the full key and reconcile to the newest one.
        """
        covered = set(self.equality_columns) | set(self.sort_columns)
        missing = tuple(c for c in schema.primary_key if c not in covered)
        if not missing:
            return self
        return IndexSpec(
            equality_columns=self.equality_columns,
            sort_columns=self.sort_columns + missing,
            included_columns=self.included_columns,
            hash_bits=self.hash_bits,
        )

    def positions(self, schema: TableSchema) -> Tuple[Tuple[int, ...], ...]:
        """Schema positions of the (equality, sort, included) columns."""
        return tuple(
            schema.positions(group)
            for group in (
                self.equality_columns, self.sort_columns, self.included_columns
            )
        )

    def key_slots(
        self, columns: Sequence[str]
    ) -> Optional[List[Tuple[int, int]]]:
        """Where a search key holds each of ``columns``: one ``(group,
        position)`` each, group 0 the equality values and 1 the sort values
        -- or ``None`` when the index key lacks one of them."""
        groups = (self.equality_columns, self.sort_columns)
        slots = {
            name: (group, position)
            for group, names in enumerate(groups)
            for position, name in enumerate(names)
        }
        if not slots.keys() >= set(columns):
            return None
        return [slots[column] for column in columns]


__all__ = ["ColumnBatch", "IndexSpec", "SchemaError", "TableSchema"]
