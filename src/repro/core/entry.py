"""Index entries and record identifiers.

An index entry (paper section 4.2) is one logical row of a run's sorted
table: hash column, equality columns, sort columns, included columns,
``beginTS``, and the RID locating the indexed record.

A Wildfire RID is "identified by the combination of zone, block ID, and
record offset" (footnote 2) -- crucially it is *not* stable: when a record
evolves from the groomed to the post-groomed zone it gets a new RID, which
is exactly why classic LSM secondary indexes (fixed-RID assumption) do not
work and the evolve operation exists.
"""

from __future__ import annotations

import enum
import struct
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.core.definition import ColumnType, IndexDefinition, encode_typed
from repro.core.encoding import (
    KeyValue,
    decode_bytes,
    decode_str,
    encode_ts_desc,
    encode_uint64,
    hash_values,
)


class Zone(enum.IntEnum):
    """Data zones of the Wildfire lifecycle.

    The index covers GROOMED and POST_GROOMED (section 3: the live zone is
    small and not indexed); LIVE exists for the engine substrate's RIDs.
    """

    LIVE = 0
    GROOMED = 1
    POST_GROOMED = 2


class RID(NamedTuple):
    """Record identifier: (zone, block id, record offset).

    A tuple, so the dict probes it keys (the endTS overlay on every record
    fetch) hash and compare at C speed."""

    zone: Zone
    block_id: int
    offset: int

    _STRUCT = struct.Struct(">BQI")

    def to_bytes(self) -> bytes:
        return self._STRUCT.pack(int(self.zone), self.block_id, self.offset)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> Tuple["RID", int]:
        zone, block_id, rec_offset = cls._STRUCT.unpack_from(data, offset)
        return cls._make((ZONES[zone], block_id, rec_offset)), offset + RID_BYTES

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.zone.name.lower()}:{self.block_id}:{self.offset}"


# The sort key always ends in the fixed-width descending-beginTS encoding
# (section 4.2), so blob-level code can split ``user key | beginTS`` without
# decoding any column.
SORT_KEY_TS_BYTES = 8
_UINT64_MAX = (1 << 64) - 1
# A sort key's user key and its raw ``~beginTS`` suffix, as getters.
user_key_of = itemgetter(slice(None, -SORT_KEY_TS_BYTES))
ts_suffix_of = itemgetter(slice(-SORT_KEY_TS_BYTES, None))


def begin_ts_of_sort_key(sort_key: bytes) -> int:
    """Decode ``beginTS`` from a raw sort key's fixed 8-byte suffix."""
    return _UINT64_MAX - int.from_bytes(sort_key[-SORT_KEY_TS_BYTES:], "big")


# Serialized RID width; the RID is always the fixed-size suffix of an entry
# blob (layout ``sort_key | includes | rid``), so the maintenance path can
# splice a new RID without decoding any column.
RID_BYTES = RID._STRUCT.size
ZONES = {int(zone): zone for zone in Zone}  # a serialized zone byte -> Zone


def encode_rid_column(zone: Zone, block_id: int, count: int) -> List[bytes]:
    """Serialized RIDs of offsets ``0..count-1`` of one data block."""
    pack = RID._STRUCT.pack
    zone_raw = int(zone)
    return [pack(zone_raw, block_id, offset) for offset in range(count)]


# Values a shard's hash memo holds before it is cleared (see hash_column):
# about twice the ~9,000 customers a shard of the htap_mixed benchmark has
# met by the end of its 15 s run, for about 1.1 MB at the bound (measured in
# docs/benchmarks.md).  It keys the values themselves, which the rows keep
# alive anyway (values an encoder accepts are equal only if they encode alike).
HASH_MEMO_ENTRIES = 16384


def hash_column(equality: Sequence[List[bytes]], values: Sequence[Sequence[KeyValue]],
                memo: Dict[object, bytes]) -> List[bytes]:
    """The encoded hash column of a batch from its encoded ``equality``
    columns and the same columns as given (``values``).  ``memo`` maps an
    equality value (a tuple for several columns) to its encoded hash across
    batches -- a shard's, touched under its groom lock, or a fresh one; a
    value it lacks is hashed once, and it is cleared first when those would
    take it past :data:`HASH_MEMO_ENTRIES`."""
    values = values[0] if len(values) == 1 else list(zip(*values))
    fresh = set(values).difference(memo)
    if fresh:
        if len(memo) + len(fresh) > HASH_MEMO_ENTRIES:
            memo.clear()
            fresh = set(values)
        encodings = dict(zip(values, map(b"".join, zip(*equality))))
        for value in fresh:
            memo[value] = encode_uint64(hash_values((encodings[value],)))
    return list(map(memo.__getitem__, values))


def entry_blob_columns(
    definition: IndexDefinition,
    equality: Sequence[List[bytes]],
    sort: Sequence[List[bytes]],
    includes: Sequence[List[bytes]],
    ts_desc: List[bytes],
    rids: List[bytes],
    equality_values: Sequence[Sequence[KeyValue]],
    hash_memo: Dict[object, bytes],
) -> Tuple[List[bytes], List[bytes]]:
    """:meth:`IndexEntry.to_blob` for a whole batch, column at a time.

    Every column holds already encoded values, one per entry (``ts_desc`` =
    descending ``beginTS``, ``rids`` = serialized RIDs; the last two as
    :func:`hash_column` takes them); the result is the unsorted ``(sort_keys,
    blobs)`` column pair in input order, byte for byte what
    ``IndexEntry.create(...).to_blob`` yields per entry.  Nothing is
    validated and no entry object is built.
    """
    key_columns = [*equality, *sort, ts_desc]
    if definition.has_hash_column:
        key_columns.insert(0, hash_column(equality, equality_values, hash_memo))
    sort_keys = list(map(b"".join, zip(*key_columns)))
    return sort_keys, list(map(b"".join, zip(sort_keys, *includes, rids)))


class IndexEntry(NamedTuple):
    """One logical index row.

    ``sort_key`` is the memcmp-comparable concatenation
    ``hash | equality columns | sort columns | ~beginTS`` -- the full run
    order of paper section 4.2 (beginTS descending so newer versions sort
    first within a key).  A tuple, so a decode builds it in one C call.
    """

    hash_value: int
    equality_values: Tuple[KeyValue, ...]
    sort_values: Tuple[KeyValue, ...]
    include_values: Tuple[KeyValue, ...]
    begin_ts: int
    rid: RID

    @classmethod
    def create(
        cls,
        definition: IndexDefinition,
        equality_values: Tuple[KeyValue, ...],
        sort_values: Tuple[KeyValue, ...],
        include_values: Tuple[KeyValue, ...],
        begin_ts: int,
        rid: RID,
    ) -> "IndexEntry":
        """Validate against a definition and compute the hash column."""
        eq, st = definition.validate_key(equality_values, sort_values)
        incl = definition.validate_includes(include_values)
        return cls(definition.hash_of(eq), eq, st, incl, begin_ts, rid)

    # -- ordering -------------------------------------------------------------

    def key_bytes(self, definition: IndexDefinition) -> bytes:
        """The user key (hash + equality + sort columns), excluding beginTS.

        Two entries with equal ``key_bytes`` are versions of the same key;
        reconciliation keeps only the newest visible one.
        """
        parts = []
        if definition.has_hash_column:
            parts.append(encode_uint64(self.hash_value))
        parts.append(encode_typed(definition.equality_columns, self.equality_values))
        parts.append(encode_typed(definition.sort_columns, self.sort_values))
        return b"".join(parts)

    def sort_key(self, definition: IndexDefinition) -> bytes:
        """Full run order: user key then descending beginTS."""
        return self.key_bytes(definition) + encode_ts_desc(self.begin_ts)

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, definition: IndexDefinition) -> bytes:
        """Serialize for storage in a run data block.

        Layout: ``sort_key | includes | rid``.  The key columns are decoded
        back out of the sort key itself (all encodings are self-delimiting
        given the definition), so nothing is stored twice.
        """
        return self.to_blob(definition)[1]

    def to_blob(self, definition: IndexDefinition) -> Tuple[bytes, bytes]:
        """Serialize once, returning ``(sort_key, blob)``.

        The blob *starts with* the sort key, so callers that need both (the
        run builder, the blob-level merge) avoid encoding the key twice.
        """
        sort_key = self.sort_key(definition)
        includes = encode_typed(definition.included_columns, self.include_values)
        return sort_key, sort_key + includes + self.rid.to_bytes()

    @classmethod
    def from_bytes(
        cls, definition: IndexDefinition, data: bytes, offset: int = 0
    ) -> Tuple["IndexEntry", int]:
        """Deserialize one entry; returns ``(entry, next_offset)``."""
        decode = vars(definition).get("_decode_entry") or _compile_decoder(definition)
        return decode(data, offset)


# The per-definition decoder reads a column type's field as (struct code,
# expression of the raw field) or ("", the variable-length column's decoder).
_PARTS = {
    ColumnType.INT64: ("Q", "{} - _SIGN"),
    ColumnType.FLOAT64: ("Q", "_as_float(_pack_q({0} ^ _SIGN if {0} & _SIGN else {0} ^ _MAX))[0]"),
    ColumnType.STRING: ("", "decode_str"),
    ColumnType.BYTES: ("", "decode_bytes"),
}


def _compile_decoder(definition: IndexDefinition) -> Callable:
    """``IndexEntry.from_bytes`` for one definition, as straight-line code:
    one ``unpack_from`` per run of fixed-width fields (hash, INT64 /
    FLOAT64 columns, ``~beginTS``, RID), a decoder call per STRING / BYTES
    column and one ``tuple.__new__`` for the entry.  Kept in the
    definition's own ``vars`` -- not by ``id``, which a freed definition
    hands on to the next."""
    sections = [  # the entry's fields in blob order
        [("Q", "{}")] * definition.has_hash_column,
        [_PARTS[spec.ctype] for spec in definition.equality_columns],
        [_PARTS[spec.ctype] for spec in definition.sort_columns],
        [("Q", "_MAX - {}")],
        [_PARTS[spec.ctype] for spec in definition.included_columns],
        [("B", "ZONES[{}]"), ("Q", "{}"), ("I", "{}")],
    ]
    namespace = dict(_new=tuple.__new__, IndexEntry=IndexEntry, RID=RID, ZONES=ZONES,
                     _SIGN=1 << 63, _MAX=_UINT64_MAX, _as_float=struct.Struct(">d").unpack,
                     _pack_q=struct.Struct(">Q").pack, decode_str=decode_str,
                     decode_bytes=decode_bytes)
    lines, values = ["def decode(data, pos):"], []
    parts = enumerate(part for section in sections for part in section)
    for fixed, run in groupby(parts, lambda part: bool(part[1][0])):
        run = list(run)
        if fixed:
            layout = struct.Struct(">" + "".join(code for _, (code, _) in run))
            namespace[f"_run{run[0][0]}"] = layout.unpack_from
            lines.append(f"    {''.join(f'f{i}, ' for i, _ in run)}= _run{run[0][0]}(data, pos)")
            lines.append(f"    pos += {layout.size}")
        else:
            lines += [f"    f{i}, pos = {decoder}(data, pos)" for i, (_, decoder) in run]
        values += [value.format(f"f{i}") if code else f"f{i}" for i, (code, value) in run]
    values = iter(values)  # each section's as source, one ``, `` after each
    hashed, eq, st, ts, incl, rid = ("".join(f"{next(values)}, " for _ in section)
                                     for section in sections)
    lines.append(f"    return _new(IndexEntry, ({hashed or '0, '}({eq}), ({st}), ({incl}), "
                 f"{ts}_new(RID, ({rid})))), pos")
    exec("\n".join(lines), namespace)
    decode = vars(definition)["_decode_entry"] = namespace["decode"]
    return decode


__all__ = [
    "HASH_MEMO_ENTRIES",
    "IndexEntry",
    "RID",
    "RID_BYTES",
    "SORT_KEY_TS_BYTES",
    "ZONES",
    "Zone",
    "begin_ts_of_sort_key",
    "encode_rid_column",
    "entry_blob_columns",
    "hash_column",
    "ts_suffix_of",
    "user_key_of",
]
