"""Columnar data-block format (the Parquet stand-in).

Wildfire persists groomed and post-groomed data as Parquet on shared
storage.  The evaluation never measures Parquet itself, so this module
provides a small self-contained columnar format with the properties the
system needs: column-major layout, per-column min/max statistics, and a
compact binary serialization that round-trips through the storage
hierarchy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.definition import COLUMN_ENCODERS, DECODERS
from repro.core.encoding import KeyValue, decode_uint64
from repro.core.entry import RID, Zone
from repro.wildfire.record import Record
from repro.wildfire.schema import TableSchema

_MAGIC = b"UMZC"
_VERSION = 1
_PACK_U64 = struct.Struct(">Q").pack


def encode_columns(
    schema: TableSchema, rows: Sequence[Sequence[KeyValue]]
) -> List[List[bytes]]:
    """The rows' user values, column-major, each encoded by its type."""
    if not rows:
        return [[] for _ in schema.columns]
    return [
        COLUMN_ENCODERS[spec.ctype](column)
        for spec, column in zip(schema.columns, zip(*rows))
    ]


@dataclass(frozen=True)
class ColumnStats:
    """Per-column min/max, for scan pruning and debugging."""

    min_value: Optional[KeyValue]
    max_value: Optional[KeyValue]


@dataclass(frozen=True)
class DataBlock:
    """One immutable columnar block of record versions.

    ``block_id`` is the zone-local monotonic id (groomed block ids order
    grooms in time; post-groomed ids order post-grooms).  A record's RID is
    ``(zone, block_id, offset)``.
    """

    zone: Zone
    block_id: int
    records: Tuple[Record, ...]

    @property
    def record_count(self) -> int:
        return len(self.records)

    def rid_by_begin_ts(self) -> Dict[int, RID]:
        """Map each record version's ``beginTS`` to its RID in this block.

        The streaming evolve hand-off: ``beginTS`` values are unique per
        version (the groomer composes ``groom cycle | commit order``), so
        this is the only decoded state the indexer needs to re-point
        groomed index entries at their post-groomed copies -- everything
        else moves as raw blob splices.
        """
        zone, block_id = self.zone, self.block_id
        return {
            record.begin_ts: RID(zone, block_id, offset)
            for offset, record in enumerate(self.records)
        }

    def column_stats(self, schema: TableSchema, column: str) -> ColumnStats:
        position = schema.position(column)
        if not self.records:
            return ColumnStats(None, None)
        values = [record.values[position] for record in self.records]
        return ColumnStats(min(values), max(values))

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, schema: TableSchema) -> bytes:
        records = self.records
        parts: List[bytes] = [
            _MAGIC,
            struct.pack(
                ">HBQI", _VERSION, int(self.zone), self.block_id, len(records)
            ),
        ]
        # Column-major user values, then the hidden columns.
        for column in encode_columns(schema, [r.values for r in records]):
            parts.extend(column)
        parts.extend([_PACK_U64(r.begin_ts) for r in records])
        parts.extend([
            b"\x00" if r.end_ts is None else b"\x01" + _PACK_U64(r.end_ts)
            for r in records
        ])
        parts.extend([
            b"\x00" if r.prev_rid is None else b"\x01" + r.prev_rid.to_bytes()
            for r in records
        ])
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, schema: TableSchema, data: bytes) -> "DataBlock":
        if data[:4] != _MAGIC:
            raise ValueError("not a columnar data block")
        version, zone_raw, block_id, count = struct.unpack_from(">HBQI", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported data block version {version}")
        pos = 4 + struct.calcsize(">HBQI")
        columns: List[List[KeyValue]] = []
        for spec in schema.columns:
            decoder = DECODERS[spec.ctype]
            values: List[KeyValue] = []
            for _ in range(count):
                value, pos = decoder(data, pos)
                values.append(value)
            columns.append(values)
        begin_ts: List[int] = []
        for _ in range(count):
            value, pos = decode_uint64(data, pos)
            begin_ts.append(value)
        end_ts: List[Optional[int]] = []
        for _ in range(count):
            flag = data[pos]
            pos += 1
            if flag:
                value, pos = decode_uint64(data, pos)
                end_ts.append(value)
            else:
                end_ts.append(None)
        prev_rids: List[Optional[RID]] = []
        for _ in range(count):
            flag = data[pos]
            pos += 1
            if flag:
                rid, pos = RID.from_bytes(data, pos)
                prev_rids.append(rid)
            else:
                prev_rids.append(None)
        records = tuple(
            Record(
                values=tuple(columns[c][i] for c in range(len(schema.columns))),
                begin_ts=begin_ts[i],
                end_ts=end_ts[i],
                prev_rid=prev_rids[i],
            )
            for i in range(count)
        )
        return cls(zone=Zone(zone_raw), block_id=block_id, records=records)


__all__ = ["ColumnStats", "DataBlock"]
