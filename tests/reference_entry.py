"""The per-column entry decoder, kept as the oracle for the compiled one.

Until the entry became a tuple built in one C call, ``IndexEntry.from_bytes``
walked the definition column by column -- one ``DECODERS[ctype]`` call per
column, ``decode_uint64`` for the hash, ``decode_ts_desc`` for ``beginTS``,
``RID.from_bytes`` for the record id -- and built a frozen dataclass.  That
walk lives on here, out of ``src/``: the decoder compiled per definition
(``repro.core.entry._compile_decoder``) must return equal entries and the
same next offset for every blob.
"""

from typing import Tuple

from repro.core.definition import DECODERS, IndexDefinition
from repro.core.encoding import UINT64_MAX, decode_uint64
from repro.core.entry import IndexEntry, RID


def decode_ts_desc(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """``beginTS`` from its descending 8-byte encoding."""
    value, offset = decode_uint64(data, offset)
    return UINT64_MAX - value, offset


def reference_entry_from_bytes(
    definition: IndexDefinition, data: bytes, offset: int = 0
) -> Tuple[IndexEntry, int]:
    """Deserialize one entry column by column; ``(entry, next_offset)``."""
    pos = offset
    hash_value = 0
    if definition.has_hash_column:
        hash_value, pos = decode_uint64(data, pos)
    eq_values = []
    for spec in definition.equality_columns:
        value, pos = DECODERS[spec.ctype](data, pos)
        eq_values.append(value)
    sort_values = []
    for spec in definition.sort_columns:
        value, pos = DECODERS[spec.ctype](data, pos)
        sort_values.append(value)
    begin_ts, pos = decode_ts_desc(data, pos)
    include_values = []
    for spec in definition.included_columns:
        value, pos = DECODERS[spec.ctype](data, pos)
        include_values.append(value)
    rid, pos = RID.from_bytes(data, pos)
    return (
        IndexEntry(
            hash_value=hash_value,
            equality_values=tuple(eq_values),
            sort_values=tuple(sort_values),
            include_values=tuple(include_values),
            begin_ts=begin_ts,
            rid=rid,
        ),
        pos,
    )
