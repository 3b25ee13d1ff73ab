"""Columnar data-block format (the Parquet stand-in).

Wildfire persists groomed and post-groomed data as Parquet on shared
storage.  The evaluation never measures Parquet itself, so this module
provides a small self-contained columnar format with the properties the
system needs: column-major layout, hidden version columns, and a compact
binary serialization that round-trips through the storage hierarchy.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.definition import COLUMN_ENCODERS, DECODERS
from repro.core.encoding import KeyValue, columns_of, decode_uint64, encode_ts_desc_column
from repro.core.entry import RID, RID_BYTES, Zone, encode_rid_column
from repro.wildfire.schema import TableSchema

_MAGIC = b"UMZC"
_VERSION = 1
_HEADER = struct.Struct(">HBQI")  # version, zone, block id, count; after the magic
_USER_START = len(_MAGIC) + _HEADER.size  # where a block's user columns start
_PACK_U64 = struct.Struct(">Q").pack
_PACK_RID = RID._STRUCT.pack  # RID.to_bytes without its frame
_UNPACK_RID = RID._STRUCT.unpack_from  # ... and a plain-int triple back


# A batch's user values, column-major, each encoded by its column's type.
Columns = List[List[bytes]]
Row = Tuple[KeyValue, ...]
RidTriple = Tuple[int, int, int]  # a RID as plain ints: (zone, block id, offset)


def encode_columns(schema: TableSchema, rows: Sequence[Sequence[KeyValue]]) -> Columns:
    """The rows' user values, column-major, each encoded by its type."""
    return encode_batch(schema, columns_of(rows, range(len(schema.columns))))


def encode_batch(schema: TableSchema, columns: Sequence[Sequence[KeyValue]]) -> Columns:
    """A batch's user values, given column-major, each encoded by its type."""
    return [COLUMN_ENCODERS[spec.ctype](column) for spec, column in zip(schema.columns, columns)]


@dataclass(frozen=True)
class DataBlock:
    """One immutable columnar block of record versions, kept column-major.

    ``block_id`` is the zone-local monotonic id (groomed block ids order
    grooms in time; post-groomed ids order post-grooms).  A record's RID is
    ``(zone, block_id, offset)``: ``rows[offset]`` holds its user values,
    the other columns its hidden ones, ``prevRID`` as a plain-int triple
    (which the cyclic GC stops tracking).  The catalog builds records.

    A groomed block also keeps its stored bytes (``payload``, the tiers'
    object) and ``bounds`` (see :meth:`stored`): the post-groom copies its
    user columns from them.
    """

    zone: Zone
    block_id: int
    rows: Tuple[Row, ...]
    begin_ts: Tuple[int, ...]
    end_ts: Tuple[Optional[int], ...]
    prev_rids: Tuple[Optional[RidTriple], ...]
    payload: bytes = field(default=b"", repr=False, compare=False)
    bounds: Sequence[int] = field(default=(), repr=False, compare=False)

    def rid_splices(self) -> Iterator[Tuple[bytes, bytes]]:
        """Each version's raw ``~beginTS`` sort-key suffix and serialized
        RID: the streaming evolve's splice pairs for this block's versions
        (``beginTS`` is unique per version, see ``compose_begin_ts``)."""
        return zip(
            encode_ts_desc_column(self.begin_ts),
            encode_rid_column(self.zone, self.block_id, len(self.rows)),
        )

    def column_bytes(self, first: int, stop: int) -> List[bytes]:
        """Each user column's stored encodings of versions ``first`` to
        ``stop - 1``, one slice of ``payload`` per column (a groomed block;
        one that keeps only its columns' offsets slices whole columns)."""
        payload, bounds, count = self.payload, self.bounds, len(self.rows)
        step = (len(bounds) - 1) // len(self.rows[0])  # offsets a column keeps
        if step < count:
            if (first, stop) != (0, count):
                raise ValueError(f"groomed block {self.block_id} slices whole columns only")
            first, stop = 0, 1
        return [payload[bounds[start + first]:bounds[start + stop]]
                for start in range(0, len(bounds) - 1, step)]

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, encoded: Columns) -> bytes:
        """The block's bytes; ``encoded``: its user columns' encodings, each
        column byte strings that join to its values in offset order
        (:func:`encode_columns` of its rows, or slices of groomed blocks)."""
        parts: List[bytes] = [
            _MAGIC, _HEADER.pack(_VERSION, int(self.zone), self.block_id, len(self.rows)),
        ]
        # Column-major user values, then the hidden columns.
        parts.extend(map(b"".join, encoded))
        parts.extend(map(_PACK_U64, self.begin_ts))
        parts.extend([
            b"\x00" if end_ts is None else b"\x01" + _PACK_U64(end_ts)
            for end_ts in self.end_ts
        ])
        parts.extend([
            b"\x00" if prev is None else b"\x01" + _PACK_RID(*prev)
            for prev in self.prev_rids
        ])
        return b"".join(parts)

    def stored(self, schema: TableSchema, encoded: Columns, payload: bytes = b"") -> "DataBlock":
        """This groomed block keeping its bytes (``payload``, else made from
        ``encoded``) and ``bounds``, where its user values start in them:
        every value's if ``schema`` has a partition key (the post-groom
        slices runs of versions), else each column's; then the end."""
        sections = list(map(b"".join, encoded))
        pieces = chain.from_iterable(encoded) if schema.partition_key else sections
        return DataBlock(
            self.zone, self.block_id, self.rows, self.begin_ts, self.end_ts, self.prev_rids,
            payload=payload or self.to_bytes([[s] for s in sections]),
            bounds=array("I", accumulate(map(len, pieces), initial=_USER_START)),
        )

    @classmethod
    def from_bytes(cls, schema: TableSchema, data: bytes) -> "DataBlock":
        if data[:4] != _MAGIC:
            raise ValueError("not a columnar data block")
        version, zone_raw, block_id, count = _HEADER.unpack_from(data, len(_MAGIC))
        if version != _VERSION:
            raise ValueError(f"unsupported data block version {version}")
        pos = _USER_START
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
        prev_rids, pos = _decode_optional(data, pos, count, _decode_rid_triple)
        block = cls(Zone(zone_raw), block_id, tuple(zip(*columns)), begin_ts,
                    tuple(end_ts), tuple(prev_rids))
        if block.zone is Zone.GROOMED:  # read back after a crash: offsets as stored
            block = block.stored(schema, encode_batch(schema, columns), data)
        return block


def _decode_rid_triple(data: bytes, pos: int) -> Tuple[RidTriple, int]:
    return _UNPACK_RID(data, pos), pos + RID_BYTES


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


__all__ = ["Columns", "DataBlock", "RidTriple", "Row", "encode_batch", "encode_columns"]
