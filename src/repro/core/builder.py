"""Building index runs (paper section 5.2).

Index build "is done by simply scanning the data block and sorting index
entries" in run order, writing fixed-size data blocks and computing the
offset array on the fly.  The builder is the single primitive shared by
index build (after a groom), merge, and evolve -- they differ only in where
the input entries come from and which level/zone the run lands in.

One column builder, :meth:`RunBuilder.build_from_columns`, sits behind
every input shape: the K-way merge and the streaming evolve hand it the
column batches of :func:`repro.core.merge.merge_blocks` as they are, the
groom, the shard copy and the LSM baseline's rebuild one sorted
``(sort_keys, entry_blobs)`` column pair, and :meth:`RunBuilder.build`
takes decoded :class:`IndexEntry` objects (``add_groomed_run``, tests),
serialized once.
Blobs are copied verbatim -- no entry is decoded.  Everything derivable
from raw sort keys (offset array, begin-TS range, block index) is
computed from the bytes, a column at a time; only the synopsis,
whose per-column min/max needs decoded values, is supplied by the caller
(merges pass the union of the input synopses), and the begin-TS range by
a caller that knows it exactly (the groom from its beginTS column, an
unfiltered merge from its inputs' headers).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.definition import IndexDefinition
from repro.core.encoding import columns_of
from repro.core.entry import (
    IndexEntry,
    SORT_KEY_TS_BYTES,
    Zone,
    begin_ts_of_sort_key,
)
from repro.core.run import (
    DataBlockMeta,
    IndexRun,
    RunHeader,
    Synopsis,
    block_checksum,
    pack_data_block,
)
from repro.faults.crash import crash_point
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy

DEFAULT_DATA_BLOCK_BYTES = 32 * 1024


class RunBuilder:
    """Builds one immutable run from a bag of entries.

    Parameters
    ----------
    definition:
        Index shape; controls entry order, offset array and synopsis.
    hierarchy:
        Storage to write blocks into.
    data_block_bytes:
        Target data-block size.  Shared storage prefers few large blocks;
        benchmarks default to 32 KiB scaled-down blocks.
    """

    def __init__(
        self,
        definition: IndexDefinition,
        hierarchy: StorageHierarchy,
        data_block_bytes: int = DEFAULT_DATA_BLOCK_BYTES,
    ) -> None:
        if data_block_bytes <= 0:
            raise ValueError("data_block_bytes must be positive")
        self.definition = definition
        self.hierarchy = hierarchy
        self.data_block_bytes = data_block_bytes

    # -- build -------------------------------------------------------------------------

    def build(
        self,
        run_id: str,
        entries: Iterable[IndexEntry],
        *placement,
        presorted: bool = False,
        **options,
    ) -> IndexRun:
        """Sort decoded entries, derive their synopsis and build the run
        (``placement`` and ``options`` as for :meth:`build_from_columns`)."""
        definition = self.definition
        # Encode once: each entry serializes to (sort_key, blob) a single
        # time and the run order comes from sorting the raw key slices.
        materialized = list(entries)
        synopsis = Synopsis.from_entries(definition, materialized)
        pairs = [entry.to_blob(definition) for entry in materialized]
        if not presorted:
            pairs.sort(key=itemgetter(0))
        columns = [columns_of(pairs, range(2))]
        return self.build_from_columns(run_id, columns, synopsis, *placement, **options)

    def build_from_columns(
        self,
        run_id: str,
        batches: Iterable[Tuple[Sequence[bytes], Sequence[bytes]]],
        synopsis: Synopsis,
        zone: Zone,
        level: int,
        min_groomed_id: int,
        max_groomed_id: int,
        persisted: bool = True,
        write_through_ssd: bool = True,
        ancestor_run_ids: Sequence[str] = (),
        begin_ts_bounds: Optional[Tuple[int, int]] = None,
    ) -> IndexRun:
        """Build a run from pre-serialized, pre-sorted entry columns.

        ``batches`` yields ``(sort_keys, entry_blobs)`` column pairs whose
        concatenation is in sort-key order (:func:`merge_blocks`' shape).
        No entry is looked at alone: blocks are cut by ``bisect`` over the
        cumulative blob lengths (a block closes when the next blob would
        pass ``data_block_bytes``, and is never empty), the offset array
        is one ``bisect`` per bucket over the sorted keys (each starts
        with the 8-byte big-endian hash) and the begin-TS bounds are
        ``begin_ts_bounds`` from a caller that knows them exactly, else
        ``min`` / ``max`` of the raw 8-byte suffixes.  ``persisted``
        selects the durable path (shared storage + write-through SSD);
        non-persisted runs go to memory only (section 6.1).
        """
        definition = self.definition
        sort_keys: List[bytes] = []
        blobs: List[bytes] = []
        for batch_keys, batch_blobs in batches:
            sort_keys += batch_keys
            blobs += batch_blobs
        count = len(blobs)
        key_lengths = list(map(len, sort_keys))
        ends = list(accumulate(map(len, blobs)))  # ends[i]: bytes through blob i
        limit = self.data_block_bytes
        block_metas: List[DataBlockMeta] = []
        block_payloads: List[bytes] = []
        first = base = 0
        while first < count:
            stop = max(bisect_right(ends, base + limit, first), first + 1)
            payload = pack_data_block(
                [0, *[end - base for end in ends[first : stop - 1]]],
                key_lengths[first:stop],
                blobs[first:stop],
            )
            block_metas.append(
                DataBlockMeta(
                    entry_count=stop - first,
                    first_sort_key=sort_keys[first],
                    size_bytes=len(payload),
                    # Recovery re-validates the run by checksumming raw
                    # payloads against this -- no entry decodes on the
                    # clean path (and the journal uses it for torn-write
                    # detection).
                    checksum=block_checksum(payload),
                )
            )
            block_payloads.append(payload)
            first, base = stop, ends[stop - 1]
        # offset[b] = ordinal of the first entry with hash high-bits >= b.
        offset_array = tuple(map(bisect_left, repeat(sort_keys), definition.bucket_bounds))
        bounds = begin_ts_bounds if count else (0, 0)
        if bounds is None:
            # ``~beginTS`` is stored descending: the smallest suffix is the newest.
            suffix = itemgetter(slice(-SORT_KEY_TS_BYTES, None))
            bounds = (begin_ts_of_sort_key(max(map(suffix, sort_keys))),
                      begin_ts_of_sort_key(min(map(suffix, sort_keys))))
        min_ts, max_ts = bounds

        header = RunHeader(
            run_id=run_id,
            zone=zone,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            entry_count=count,
            synopsis=synopsis,
            offset_array=offset_array,
            block_meta=tuple(block_metas),
            min_begin_ts=min_ts,
            max_begin_ts=max_ts,
            persisted=persisted,
            ancestor_run_ids=tuple(ancestor_run_ids),
        )

        self._write_blocks(header, block_payloads, write_through_ssd)
        return IndexRun(definition, header, self.hierarchy)

    def _write_blocks(
        self,
        header: RunHeader,
        payloads: List[bytes],
        write_through_ssd: bool,
    ) -> None:
        header_block = Block(
            BlockId(header.run_id, 0), header.to_bytes(self.definition)
        )
        data_blocks = [
            Block(BlockId(header.run_id, i + 1), payload)
            for i, payload in enumerate(payloads)
        ]
        if header.persisted:
            # Header goes first so a crash mid-write leaves a detectably
            # incomplete run (recovery checks data blocks against the header).
            crash_point("builder.pre_persist")
            self.hierarchy.write_persisted(header_block, write_through_ssd)
            for block in data_blocks:
                crash_point("builder.data_block")
                self.hierarchy.write_persisted(block, write_through_ssd)
            crash_point("builder.post_persist")
        else:
            self.hierarchy.write_cached_only(header_block)
            for block in data_blocks:
                self.hierarchy.write_cached_only(block)


__all__ = ["RunBuilder", "DEFAULT_DATA_BLOCK_BYTES"]
