"""The on-storage index-run format (paper section 4.2).

A run is one header block plus one or more fixed-size data blocks:

* the **header block** carries the metadata: number of data blocks, merge
  level, zone, range of groomed block ids the run covers, the synopsis
  (min/max of every key column, used for run pruning), the offset array
  (2^n buckets over the most-significant hash bits, used to narrow binary
  search), a block index (first key and entry count per data block), the
  total entry count, and -- for the non-persisted-level protocol of section
  6.1 -- the list of ancestor run ids that must not be deleted until this
  run reaches a persisted level;
* each **data block** is the :mod:`repro.core.block` format, read through a
  :class:`DataBlockView`: cold (probes slice the payload, no per-entry
  objects) or keyed (a sort-key column the kernels here bisect in C).

Everything is serialized to plain ``bytes`` so runs round-trip through the
storage hierarchy like any other block.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.block import DATA_BLOCK_MAGIC, DataBlockView, _PROBES, _probes
from repro.core.block import block_checksum, pack_data_block
from repro.core.definition import DECODERS, ENCODERS, IndexDefinition
from repro.core.encoding import KeyValue
from repro.core.entry import IndexEntry, SORT_KEY_TS_BYTES, Zone
from repro.storage.block import BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent

HEADER_ORDINAL = 0
_tuple_new = tuple.__new__
_MAGIC = b"UMZI"
# Header v3 carries a per-data-block CRC32 in the block index so recovery
# re-validates runs by checksumming raw payloads; it is the only version
# read.
_VERSION = 3


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _unpack_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    return data[offset : offset + length], offset + length


def _pack_str(text: str) -> bytes:
    return _pack_bytes(text.encode("utf-8"))


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = _unpack_bytes(data, offset)
    return raw.decode("utf-8"), offset


@dataclass(frozen=True)
class ColumnRange:
    """Min/max of one key column within a run (the synopsis row)."""

    min_value: KeyValue
    max_value: KeyValue

    def overlaps_point(self, value: KeyValue) -> bool:
        return self.min_value <= value <= self.max_value

    def overlaps_range(
        self, low: Optional[KeyValue], high: Optional[KeyValue]
    ) -> bool:
        if low is not None and low > self.max_value:
            return False
        if high is not None and high < self.min_value:
            return False
        return True


@dataclass(frozen=True)
class Synopsis:
    """Per-key-column value ranges; empty runs have no ranges.

    A run can be skipped by a query "if the input value of some key column
    does not overlap with the range specified by the synopsis".
    """

    ranges: Tuple[Optional[ColumnRange], ...]

    @classmethod
    def from_entries(
        cls, definition: IndexDefinition, entries: Sequence[IndexEntry]
    ) -> "Synopsis":
        n_eq = len(definition.equality_columns)
        n_key = len(definition.key_columns)
        if not entries:
            return cls(ranges=tuple([None] * n_key))
        ranges: List[Optional[ColumnRange]] = []
        for pos in range(n_key):
            if pos < n_eq:
                values = [e.equality_values[pos] for e in entries]
            else:
                values = [e.sort_values[pos - n_eq] for e in entries]
            ranges.append(ColumnRange(min(values), max(values)))
        return cls(ranges=tuple(ranges))

    @classmethod
    def union(cls, synopses: Sequence["Synopsis"]) -> "Synopsis":
        """Position-wise union of several runs' synopses.

        Used by the blob-level merge path: the merged run's entries are a
        subset of the inputs' entries, so the union of the input ranges is
        a sound (possibly over-approximate) synopsis without decoding a
        single merged entry.  Over-approximation only costs pruning
        opportunities, never correctness.
        """
        if not synopses:
            raise ValueError("union of zero synopses is undefined")
        width = len(synopses[0].ranges)
        merged: List[Optional[ColumnRange]] = []
        for position in range(width):
            present = [
                s.ranges[position] for s in synopses if s.ranges[position] is not None
            ]
            if not present:
                merged.append(None)
                continue
            merged.append(
                ColumnRange(
                    min(r.min_value for r in present),
                    max(r.max_value for r in present),
                )
            )
        return cls(ranges=tuple(merged))


@dataclass(frozen=True)
class DataBlockMeta:
    """Block-index entry: where one data block starts and how big it is.

    ``checksum`` is the CRC32 of the block's raw payload, which recovery
    re-validates the block against.
    """

    entry_count: int
    first_sort_key: bytes
    size_bytes: int
    checksum: int


@dataclass(frozen=True)
class RunHeader:
    """All run metadata stored in the header block."""

    run_id: str
    zone: Zone
    level: int
    min_groomed_id: int
    max_groomed_id: int
    entry_count: int
    synopsis: Synopsis
    offset_array: Tuple[int, ...]
    block_meta: Tuple[DataBlockMeta, ...]
    min_begin_ts: int
    max_begin_ts: int
    persisted: bool
    ancestor_run_ids: Tuple[str, ...] = ()

    @property
    def num_data_blocks(self) -> int:
        return len(self.block_meta)

    @property
    def data_bytes(self) -> int:
        return sum(m.size_bytes for m in self.block_meta)

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, definition: IndexDefinition) -> bytes:
        parts: List[bytes] = [_MAGIC, struct.pack(">H", _VERSION)]
        parts.append(_pack_str(self.run_id))
        parts.append(
            struct.pack(
                ">BHqqQ",
                int(self.zone),
                self.level,
                self.min_groomed_id,
                self.max_groomed_id,
                self.entry_count,
            )
        )
        parts.append(struct.pack(">QQB", self.min_begin_ts, self.max_begin_ts, int(self.persisted)))
        # synopsis: presence flag + encoded min/max per key column
        parts.append(struct.pack(">H", len(self.synopsis.ranges)))
        for spec, crange in zip(
            definition.key_columns, self.synopsis.ranges, strict=True
        ):
            if crange is None:
                parts.append(b"\x00")
            else:
                encode = ENCODERS[spec.ctype]
                parts.append(b"\x01")
                parts.append(encode(crange.min_value))
                parts.append(encode(crange.max_value))
        # offset array
        parts.append(struct.pack(">I", len(self.offset_array)))
        if self.offset_array:
            parts.append(struct.pack(f">{len(self.offset_array)}Q", *self.offset_array))
        # block index: per-block payload checksum behind a presence byte
        # (always 1; a 0 is refused on read)
        parts.append(struct.pack(">I", len(self.block_meta)))
        for meta in self.block_meta:
            parts.append(struct.pack(">QI", meta.entry_count, meta.size_bytes))
            parts.append(_pack_bytes(meta.first_sort_key))
            parts.append(struct.pack(">BI", 1, meta.checksum))
        # ancestors
        parts.append(struct.pack(">I", len(self.ancestor_run_ids)))
        for rid in self.ancestor_run_ids:
            parts.append(_pack_str(rid))
        # Bloom-filter presence byte: always 0 (a 1 is refused on read)
        parts.append(b"\x00")
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, definition: IndexDefinition, data: bytes) -> "RunHeader":
        if data[:4] != _MAGIC:
            raise ValueError("not an Umzi run header block")
        (version,) = struct.unpack_from(">H", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported run header version {version}")
        pos = 6
        run_id, pos = _unpack_str(data, pos)
        zone_raw, level, min_gid, max_gid, entry_count = struct.unpack_from(
            ">BHqqQ", data, pos
        )
        pos += struct.calcsize(">BHqqQ")
        min_ts, max_ts, persisted = struct.unpack_from(">QQB", data, pos)
        pos += struct.calcsize(">QQB")
        (n_ranges,) = struct.unpack_from(">H", data, pos)
        pos += 2
        key_specs = definition.key_columns
        if n_ranges != len(key_specs):
            raise ValueError(
                f"synopsis has {n_ranges} columns but definition has "
                f"{len(key_specs)} key columns"
            )
        ranges: List[Optional[ColumnRange]] = []
        for spec in key_specs:
            present = data[pos]
            pos += 1
            if not present:
                ranges.append(None)
                continue
            decoder = DECODERS[spec.ctype]
            min_value, pos = decoder(data, pos)
            max_value, pos = decoder(data, pos)
            ranges.append(ColumnRange(min_value, max_value))
        (n_offsets,) = struct.unpack_from(">I", data, pos)
        pos += 4
        offsets: Tuple[int, ...] = ()
        if n_offsets:
            offsets = struct.unpack_from(f">{n_offsets}Q", data, pos)
            pos += 8 * n_offsets
        (n_blocks,) = struct.unpack_from(">I", data, pos)
        pos += 4
        metas: List[DataBlockMeta] = []
        for _ in range(n_blocks):
            count, size_bytes = struct.unpack_from(">QI", data, pos)
            pos += struct.calcsize(">QI")
            first_key, pos = _unpack_bytes(data, pos)
            if not data[pos]:
                raise ValueError("data block without a checksum")
            (checksum,) = struct.unpack_from(">I", data, pos + 1)
            pos += 5
            metas.append(
                DataBlockMeta(
                    entry_count=count,
                    first_sort_key=first_key,
                    size_bytes=size_bytes,
                    checksum=checksum,
                )
            )
        (n_ancestors,) = struct.unpack_from(">I", data, pos)
        pos += 4
        ancestors: List[str] = []
        for _ in range(n_ancestors):
            ancestor, pos = _unpack_str(data, pos)
            ancestors.append(ancestor)
        if pos < len(data) and data[pos]:
            raise ValueError("run header carries a Bloom filter")
        return cls(
            run_id=run_id,
            zone=Zone(zone_raw),
            level=level,
            min_groomed_id=min_gid,
            max_groomed_id=max_gid,
            entry_count=entry_count,
            synopsis=Synopsis(ranges=tuple(ranges)),
            offset_array=tuple(offsets),
            block_meta=tuple(metas),
            min_begin_ts=min_ts,
            max_begin_ts=max_ts,
            persisted=bool(persisted),
            ancestor_run_ids=tuple(ancestors),
        )


class IndexRun:
    """In-memory handle to one run: header metadata + block access.

    The handle holds only the header; data blocks are fetched through the
    storage hierarchy on demand (charging tier latency), with a small
    per-run decode cache so repeated touches within one query batch do not
    re-decode bytes.  Cached decodes are invalidated by nothing -- runs are
    immutable.
    """

    def __init__(
        self,
        definition: IndexDefinition,
        header: RunHeader,
        hierarchy: StorageHierarchy,
    ) -> None:
        self.definition = definition
        self.header = header
        self.hierarchy = hierarchy
        # Read several times per searched run; the header never changes.
        self.run_id = header.run_id
        self.level = header.level
        self.entry_count = header.entry_count
        self._views: Dict[int, DataBlockView] = {}
        # Data blocks pulled into the local tiers on this handle's behalf
        # (``block_view`` fetches, ``CacheManager.load_run``) and not yet
        # dropped again: what a query exit over a purged run releases.
        self.fetched_blocks: Set[int] = set()
        # ``_cum[i]`` = number of entries before data block ``i``.
        self._cum: List[int] = [
            0, *accumulate(meta.entry_count for meta in header.block_meta)
        ]
        self._first_keys: List[bytes] = [
            meta.first_sort_key for meta in header.block_meta
        ]
        # Offset-array bucket ``b`` holds the ordinals ``[bucket_fences[b],
        # bucket_fences[b + 1])``; empty without a hash column.
        self.bucket_fences: Tuple[int, ...] = header.offset_array and (
            *header.offset_array, header.entry_count
        )

    # -- identity / metadata ----------------------------------------------------

    @property
    def zone(self) -> Zone:
        return self.header.zone

    @property
    def min_groomed_id(self) -> int:
        return self.header.min_groomed_id

    @property
    def max_groomed_id(self) -> int:
        return self.header.max_groomed_id

    @property
    def size_bytes(self) -> int:
        return self.header.data_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexRun({self.run_id} zone={self.zone.name} level={self.level} "
            f"gids=[{self.min_groomed_id},{self.max_groomed_id}] "
            f"entries={self.entry_count})"
        )

    # -- block access -------------------------------------------------------------

    def header_block_id(self) -> BlockId:
        return BlockId(self.run_id, HEADER_ORDINAL)

    def data_block_id(self, block_index: int) -> BlockId:
        return _tuple_new(BlockId, (self.run_id, block_index + 1))

    def all_block_ids(self) -> List[BlockId]:
        return [self.header_block_id()] + [
            self.data_block_id(i) for i in range(self.header.num_data_blocks)
        ]

    def block_view(
        self, block_index: int, intent: ReadIntent = ReadIntent.QUERY
    ) -> DataBlockView:
        """Fetch one data block as a lazy view (cached per handle).

        The storage read (and its tier latency) happens once per block;
        entry decoding happens per *probed* entry, so binary-search probes
        stay cheap regardless of block size.  ``intent`` is the
        cache-admission signal passed down to :meth:`StorageHierarchy.read`:
        the post-groom sweep's probes read as MAINTENANCE and memoize like
        a query's (a binary search revisits a block; the sweep then forgets
        what no tier holds).  A query back at a memoized view makes it keyed.
        """
        cached = self._views.get(block_index)
        if cached is not None:
            if cached.keys is None and intent is ReadIntent.QUERY:
                cached.key_column()
            return cached
        # :meth:`data_block_id`, inline: ``BlockId._make`` minus its two frames
        hierarchy = self.hierarchy
        block = hierarchy.read(
            _tuple_new(BlockId, (self.run_id, block_index + 1)), intent=intent
        )
        view = DataBlockView(self.definition, block.payload, hierarchy.stats.decode)
        self._views[block_index] = view
        self.fetched_blocks.add(block_index)
        return view

    def drop_decode_cache(self) -> None:
        """Forget the memoized views and their decoded entries: at every
        purged query exit (inline there), purge and run reclaim."""
        self._views.clear()

    # -- global-ordinal navigation --------------------------------------------------

    def lookup_visible(
        self, key: bytes, ts_floor: bytes, lo: int, hi: int
    ) -> Optional[IndexEntry]:
        """Newest version of exactly ``key`` visible at ``ts_floor``, or None.

        The exact-key kernel (paper section 7.2), one frame for what a
        point lookup does inside a run.  A user key is a strict prefix of
        its versions' sort keys and equals none, so the block-index fences
        clamped onto ``[lo, hi)`` leave a window inside one block (or an
        empty one, which starts at the block holding ``lo``): that block
        is fetched and bisected locally -- in C over a keyed view, by the
        probe loop's own midpoints over a cold one -- then the key's
        versions (newest first) are stepped to the first whose raw
        ``~beginTS`` suffix is ``>= ts_floor``.  It probes, charges
        ``raw_key_probes`` and fetches blocks exactly as
        ``scan_visible(key, lo, hi, key + b"\x00", ts_floor, True)`` would,
        and hands over to it where the versions run into the next block.
        Only the entry returned is decoded.
        """
        cum = self._cum
        # No sort key equals a user key (it is a strict prefix of its own
        # versions' keys), so the fences bracket exactly block ``b - 1``.
        b = bisect_left(self._first_keys, key)
        lo, hi = max(lo, min(cum[b - 1 if b else 0], hi)), min(hi, max(cum[b], lo))
        if lo < hi:
            b -= 1
        elif lo < self.entry_count:  # empty window: on from the block at ``lo``
            b = bisect_right(cum, lo) - 1
        else:
            return None  # every entry is below the key
        start, end = cum[b], cum[b + 1]
        view = self.block_view(b)
        payload, base, table, count, column = (
            view.payload, view.base, view.table, view.count, view.keys)
        lo, hi, probes = lo - start, hi - start, 0
        if column:  # keyed: C bisection, charged as the loop below
            i = bisect_left(column, key, lo, hi)
            probes = (_PROBES.get(hi - lo) or _probes(hi - lo))[i - lo]
            lo = hi = i
        while lo < hi:  # cold: the same midpoints, block-local
            mid = (lo + hi) // 2
            probes += 1
            at = base + table[mid]
            lo, hi = (mid + 1, hi) if payload[at : at + table[count + mid]] < key else (lo, mid)
        # The key's versions, newest first, start at ``lo``.
        stats = self.hierarchy.stats.decode
        for i in range(lo, count):
            probes += 1
            sort_key = column[i] if column else payload[
                (at := base + table[i]) : at + table[count + i]
            ]
            if sort_key[:-SORT_KEY_TS_BYTES] != key:
                stats.raw_key_probes += probes
                return None
            if sort_key[-SORT_KEY_TS_BYTES:] >= ts_floor:
                stats.raw_key_probes += probes
                return view.entry(i)
        stats.raw_key_probes += probes  # all newer than the snapshot: on
        hits = self.scan_visible(key, end, end, key + b"\x00", ts_floor, True)
        return hits[0][1].entry(hits[0][2]) if hits else None

    def scan_visible(
        self,
        lower_key: bytes,
        lo: int,
        hi: int,
        upper_exclusive: bytes,
        ts_floor: bytes,
        first_only: bool = False,
        intent: ReadIntent = ReadIntent.QUERY,
    ) -> List[Tuple[bytes, DataBlockView, int]]:
        """Newest visible version of each key in ``[lower_key, upper_exclusive)``.

        The range kernel (paper section 7.1.1), one frame per run
        searched.  The block index brackets the first sort key ``>=
        lower_key`` from header metadata alone; clamped onto ``[lo, hi)``
        (the key's offset-array bucket, or the whole run) it keeps every
        probe inside the key range -- a bracket disjoint from the range
        yields the nearer original fence, never a position before the
        true one.  The binary search probes ``(lo + hi) // 2`` with the
        probed block's window, payload and tables in locals, resolving a
        block only when a probe leaves the window (so blocks are fetched
        in probe order); ``lo == hi`` starts at that ordinal without a
        probe, the hand-over of the exact-key kernels.  The forward scan
        walks block by block to the first user key ``>= upper_exclusive``
        (``b""``: the run's end) and returns the run's hits as one list of
        ``(sort_key, view, in_block_index)``, in key order: per user key
        the first entry whose raw ``~beginTS`` suffix is ``>= ts_floor``,
        the newest version visible; ``first_only`` stops at the first.
        Blocks are fetched with ``intent`` (:meth:`block_view`).

        Zero-decode (callers decode what they keep).  One raw-key probe
        per entry looked at, whichever kind of view, charged block by
        block as the walk leaves it.
        """
        cum, first_keys = self._cum, self._first_keys
        block_lo = cum[max(0, bisect_left(first_keys, lower_key) - 1)]
        block_hi = cum[bisect_right(first_keys, lower_key)]
        lo, hi = max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))
        stats = self.hierarchy.stats.decode
        total, tail = self.entry_count, -SORT_KEY_TS_BYTES
        start = end = probes = 0  # empty window: the first probe resolves
        try:
            while True:
                # The next probe; once the range is empty, where it ended.
                ordinal = (lo + hi) // 2 if lo < hi else lo
                if ordinal >= total:
                    return []  # every entry is below the lower key
                if not start <= ordinal < end:
                    block_index = bisect_right(cum, ordinal) - 1
                    start, end = cum[block_index], cum[block_index + 1]
                    view = self.block_view(block_index, intent)
                    payload, base, table = view.payload, view.base, view.table
                    count, column = view.count, view.keys
                    if column and start <= lo < hi <= end:
                        i = bisect_left(column, lower_key, lo - start, hi - start) + start
                        probes += (_PROBES.get(hi - lo) or _probes(hi - lo))[i - lo]
                        lo = hi = i
                        continue  # where the loop would have ended
                if lo >= hi:
                    break
                i = ordinal - start
                probes += 1
                at = base + table[i]
                if payload[at : at + table[count + i]] < lower_key:
                    lo = ordinal + 1
                else:
                    hi = ordinal
        finally:  # a failed block fetch still pays for the probes made
            stats.raw_key_probes += probes
        bounded = upper_exclusive != b""
        previous = None  # the last user key seen ...
        answered = False  # ... and whether one of its versions was a hit
        first = lo - start
        hits = []
        while True:
            done = False
            for i in range(first, count):
                sort_key = column[i] if column else payload[
                    (at := base + table[i]) : at + table[count + i]
                ]
                key = sort_key[:tail]
                if bounded and key >= upper_exclusive:
                    done = True
                    break
                if key != previous:
                    previous = key
                    answered = False
                elif answered:
                    continue  # an older version of a key already answered
                if sort_key[tail:] < ts_floor:
                    continue  # newer than the snapshot; keep looking
                answered = True
                hits.append((sort_key, view, i))
                if first_only:
                    done = True
                    break
            stats.raw_key_probes += (i + 1 if done else count) - first
            if done or end >= total:
                return hits
            block_index += 1  # on into the next block
            end = cum[block_index + 1]
            view = self.block_view(block_index, intent)
            payload, base, table = view.payload, view.base, view.table
            count, column = view.count, view.keys
            first = 0

    def batch_visible(
        self,
        keys: Sequence[bytes],
        buckets: Optional[Sequence[int]],
        floors: Sequence[bytes],
        slots: Sequence[int],
        out: List[Optional[Tuple[DataBlockView, int]]],
        intent: ReadIntent = ReadIntent.QUERY,
    ) -> None:
        """``out[s]`` = ``(view, i)`` of the newest version of ``keys[s]``
        visible at ``floors[s]``, for each ``s`` in ``slots`` this run has.

        The batch kernel (paper section 7.2: "each run is accessed
        sequentially and only once"), one frame per run searched.
        ``slots`` index ``keys`` in ascending key order; ``buckets`` holds
        each key's offset-array bucket (``None``: search the whole run).
        Per key: the bucket, narrowed -- never widened -- by the monotone
        cursor (a key whose bucket is empty or already passed is absent
        and costs nothing); fences and binary search as in
        :meth:`scan_visible`, the window held across keys; then
        :meth:`lookup_visible`'s step through the key's versions and its
        hand-over.  A batch mixing snapshots is the same single pass:
        every search runs over a sub-range of a lone lookup's, so no other
        block is touched and a key costs at most one probe more.  Blocks
        are fetched with ``intent`` (the post-groom sweep's MAINTENANCE).
        """
        count, tail = self.entry_count, -SORT_KEY_TS_BYTES
        cum, first_keys = self._cum, self._first_keys
        fences = self.bucket_fences if buckets is not None else ()
        start = end = probes = 0  # empty window: the first probe resolves
        cursor = 0  # monotone: keys are sorted, so never search backwards
        try:
            for slot in slots:
                lo, hi = cursor, count
                if fences:
                    bucket = buckets[slot]
                    hi = fences[bucket + 1]
                    if fences[bucket] > lo:
                        lo = fences[bucket]
                if lo >= hi:
                    continue
                key = keys[slot]
                block_lo = cum[max(0, bisect_left(first_keys, key) - 1)]
                block_hi = cum[bisect_right(first_keys, key)]
                lo, hi = max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))
                while True:
                    # The next probe; once the range is empty, where it ended.
                    ordinal = (lo + hi) // 2 if lo < hi else lo
                    if ordinal >= count:
                        return  # every later key is past the last entry too
                    if not start <= ordinal < end:
                        block_index = bisect_right(cum, ordinal) - 1
                        start, end = cum[block_index], cum[block_index + 1]
                        view = self.block_view(block_index, intent)
                        payload, base, table = view.payload, view.base, view.table
                        size, column = view.count, view.keys
                    if lo >= hi:
                        break
                    if column and start <= lo < hi <= end:  # held or resolved
                        i = bisect_left(column, key, lo - start, hi - start) + start
                        probes += (_PROBES.get(hi - lo) or _probes(hi - lo))[i - lo]
                        lo = hi = i
                        continue  # where the loop would have ended
                    i = ordinal - start
                    probes += 1
                    at = base + table[i]
                    if payload[at : at + table[size + i]] < key:
                        lo = ordinal + 1
                    else:
                        hi = ordinal
                cursor = lo
                floor = floors[slot]
                # The key's versions, newest first, start at ``lo``.
                for i in range(lo - start, size):
                    probes += 1
                    sort_key = column[i] if column else payload[
                        (at := base + table[i]) : at + table[size + i]
                    ]
                    if sort_key[:tail] != key:
                        break
                    if sort_key[tail:] >= floor:
                        out[slot] = view, i
                        break
                else:  # all newer than the snapshot: on into the next block
                    lo = end
                if lo < end:
                    continue  # answered, or the run holds no such key
                hits = self.scan_visible(key, lo, lo, key + b"\x00", floor, True, intent)
                if hits:
                    out[slot] = hits[0][1:]
        finally:  # a failed block fetch still pays for the probes made
            self.hierarchy.stats.decode.raw_key_probes += probes

    def block_columns(self, block_index: int) -> Tuple[List[bytes], List[bytes]]:
        """One data block as two parallel lists ``(sort_keys, entry_blobs)``.

        The zero-decode input of a one-pass merge, evolve or copy stream:
        a view the handle memoized is reused, any other block is a
        ``ReadIntent.MAINTENANCE`` read left unmemoized (a stream touches
        each block once; its view would only keep a dead payload on a
        handle queries share).  Both columns are sliced straight off the
        payload by its two tables, and the block is charged as ``count``
        raw-key probes and ``count`` blob copies.
        """
        stats = self.hierarchy.stats.decode
        view = self._views.get(block_index)
        if view is None:
            block = self.hierarchy.read(self.data_block_id(block_index), intent=ReadIntent.MAINTENANCE)
            view = DataBlockView(self.definition, block.payload, stats)
        count = view.count
        stats.raw_key_probes += count
        stats.blob_copies += count
        payload, base, table = view.payload, view.base, view.table
        starts = [base + offset for offset in table[:count]]
        blobs = [
            payload[start:end]
            for start, end in zip(starts, [*starts[1:], len(payload)])
        ]
        # Every entry blob starts with its sort key.
        return [blob[:n] for blob, n in zip(blobs, table[count:])], blobs


__all__ = [
    "ColumnRange",
    "DATA_BLOCK_MAGIC",
    "DataBlockView",
    "DataBlockMeta",
    "IndexRun",
    "RunHeader",
    "Synopsis",
    "block_checksum",
    "pack_data_block",
    "HEADER_ORDINAL",
]
