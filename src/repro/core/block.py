"""The data-block format and its read view (paper section 4.2).

A data block is ``"UMB2" | count:u32 | entry offsets:u32[count] | sort-key
lengths:u32[count] | entry bytes`` in sort-key order.  Each entry blob
starts with its memcmp-comparable sort key (beginTS descending in the last
8 bytes), so a probe or a visibility check is a payload slice.  A
:class:`DataBlockView` is *cold* (one ``array`` of u32s, no per-entry
objects) until a query comes back to its run handle's memoized view
(section 6.2); it is then *keyed*: its sort-key column, built once, is
searched by the run kernels in C and charged as the cold loop (:func:`_probes`).
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.definition import IndexDefinition
from repro.core.entry import RID, RID_BYTES, IndexEntry
from repro.storage.metrics import DecodeStats

DATA_BLOCK_MAGIC = b"UMB2"
_UNPACK_U32 = struct.Struct(">I").unpack_from
_UNPACK_RID = RID._STRUCT.unpack_from


def block_checksum(payload: bytes) -> int:
    """CRC32 of one raw data-block payload (the recovery checksum).

    zlib's C-speed CRC32 stands in for CRC32C (the container has no
    Castagnoli implementation and a pure-Python table would sit on the
    write hot path); the property that matters -- any single flipped byte
    changes the digest -- is identical.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF


def pack_data_block(
    offsets: Sequence[int], sort_key_lengths: Sequence[int], blobs: Sequence[bytes]
) -> bytes:
    """Serialize one data block from its two tables and entry blobs: the
    offsets let a probe touch a single entry (the restart-point trick), the
    sort-key lengths make it a pure payload slice."""
    count = len(blobs)
    parts = [DATA_BLOCK_MAGIC, struct.pack(">I", count)]
    if count:
        parts.append(struct.pack(f">{count}I", *offsets))
        parts.append(struct.pack(f">{count}I", *sort_key_lengths))
    parts.extend(blobs)
    return b"".join(parts)


# array typecode of a 4-byte unsigned integer on this platform.
_U32 = "I" if array("I").itemsize == 4 else "L"
_SWAP_U32 = sys.byteorder == "little"  # tables are stored big-endian


# width -> probe counts, memoized up to 2,048 entries (~2 MB of tables)
_PROBES: Dict[int, bytes] = {0: b"\x00"}
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"


def _probes(width: int) -> bytes:
    """``_probes(n)[r]``: the probes a lower-bound binary search over ``n``
    entries (``mid = (lo + hi) // 2``) makes to end at ``r`` in ``[0, n]``:
    one, then left into ``n // 2`` entries or right into the rest."""
    table = _PROBES.get(width)
    if table is None:
        half = width // 2
        table = (_probes(half) + _probes(width - half - 1)).translate(_PLUS_ONE)
        if width <= 2048:
            _PROBES[width] = table
    return table


class DataBlockView:
    """Lazy, memoizing view over one encoded data block.

    ``table`` holds the entry offsets in ``[0, count)`` and the sort-key
    lengths in ``[count, 2 * count)``; entry ``i`` starts at
    ``payload[base + table[i]]``.  ``payload`` / ``base`` / ``table`` /
    ``count`` / ``keys`` (``None`` until :meth:`key_column`) are what the
    run-level search kernels lift into locals.
    """

    __slots__ = ("definition", "payload", "table", "base", "decoded", "_stats",
                 "count", "keys")

    def __init__(
        self,
        definition: IndexDefinition,
        payload: bytes,
        stats: Optional[DecodeStats] = None,
    ) -> None:
        self.definition = definition
        self.payload = payload
        self._stats = stats
        if payload[:4] != DATA_BLOCK_MAGIC:
            raise ValueError("not an Umzi data block")
        (count,) = _UNPACK_U32(payload, 4)
        self.count, self.base = count, 8 + 8 * count
        # Both u32 tables as one array: the same few allocations over ten
        # entries or five thousand.
        self.table = table = array(_U32, payload[8 : self.base])
        if len(table) != 2 * count:
            raise ValueError("data block is shorter than its offset table")
        if _SWAP_U32:
            table.byteswap()
        # in-block index -> decoded entry, filled by :meth:`entry`; hot
        # loops ask it first (``view.decoded.get(i) or view.entry(i)``).
        self.decoded: Dict[int, IndexEntry] = {}
        self.keys: Optional[List[bytes]] = None

    def key_column(self) -> List[bytes]:
        """Every entry's sort key, sliced once (racing threads build equal lists)."""
        if self.keys is None:
            payload, base, count = self.payload, self.base, self.count
            self.keys = [payload[base + at : base + at + n]
                         for at, n in zip(self.table[:count], self.table[count:])]
        return self.keys

    def entry(self, index: int) -> IndexEntry:
        cached = self.decoded.get(index)
        if cached is not None:
            return cached
        if self._stats is not None:
            self._stats.entry_decodes += 1
        entry, _ = IndexEntry.from_bytes(
            self.definition, self.payload, self.base + self.table[index]
        )
        self.decoded[index] = entry
        return entry

    # -- zero-decode accessors --------------------------------------------------

    def rid_at(self, index: int) -> Tuple[int, int, int]:
        """Entry ``index``'s RID as ints, off its blob's fixed suffix (no decode or copy)."""
        # Blob ``index`` ends where the next starts.
        end = self.base + self.table[index + 1] if index + 1 < self.count else len(self.payload)
        return _UNPACK_RID(self.payload, end - RID_BYTES)


__all__ = ["DATA_BLOCK_MAGIC", "DataBlockView", "block_checksum", "pack_data_block"]
