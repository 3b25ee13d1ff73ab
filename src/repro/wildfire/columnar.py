"""Columnar data-block format (the Parquet stand-in).

Wildfire persists groomed and post-groomed data as Parquet on shared
storage.  The evaluation never measures Parquet itself, so this module
provides a small self-contained columnar format with the properties the
system needs: column-major layout, hidden version columns, and a compact
binary serialization that round-trips through the storage hierarchy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.definition import COLUMN_ENCODERS, DECODERS
from repro.core.encoding import KeyValue, decode_uint64
from repro.core.entry import RID, Zone
from repro.wildfire.record import Record
from repro.wildfire.schema import TableSchema

_MAGIC = b"UMZC"
_VERSION = 1
_PACK_U64 = struct.Struct(">Q").pack
_PACK_RID = RID._STRUCT.pack  # RID.to_bytes without its frame


# A batch's user values, column-major, each encoded by its column's type.
Columns = List[List[bytes]]


def encode_columns(schema: TableSchema, rows: Sequence[Sequence[KeyValue]]) -> Columns:
    """The rows' user values, column-major, each encoded by its type."""
    if not rows:
        return [[] for _ in schema.columns]
    return [
        COLUMN_ENCODERS[spec.ctype](column)
        for spec, column in zip(schema.columns, zip(*rows))
    ]


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

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, encoded: Columns) -> bytes:
        """The block's bytes; ``encoded``: :func:`encode_columns` of its
        records' values (the groomer's one encode of a batch)."""
        records = self.records
        parts: List[bytes] = [
            _MAGIC,
            struct.pack(
                ">HBQI", _VERSION, int(self.zone), self.block_id, len(records)
            ),
        ]
        # Column-major user values, then the hidden columns.
        for column in encoded:
            parts.extend(column)
        parts.extend([_PACK_U64(r.begin_ts) for r in records])
        parts.extend([
            b"\x00" if r.end_ts is None else b"\x01" + _PACK_U64(r.end_ts)
            for r in records
        ])
        parts.extend([
            b"\x00" if r.prev_rid is None else b"\x01" + _PACK_RID(*r.prev_rid)
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
        begin_ts = struct.unpack_from(f">{count}Q", data, pos)
        end_ts, pos = _decode_optional(data, pos + 8 * count, count, decode_uint64)
        prev_rids, pos = _decode_optional(data, pos, count, RID.from_bytes)
        records = tuple(map(Record, zip(*columns), begin_ts, end_ts, prev_rids))
        return cls(zone=Zone(zone_raw), block_id=block_id, records=records)


def _decode_optional(data: bytes, pos: int, count: int, decode) -> Tuple[List, int]:
    """A hidden column of flag-prefixed optional values (``None`` if unset)."""
    values: List = []
    for _ in range(count):
        pos += 1
        if data[pos - 1]:
            value, pos = decode(data, pos)
            values.append(value)
        else:
            values.append(None)
    return values, pos


__all__ = ["Columns", "DataBlock", "encode_columns"]
