"""Building index runs (paper section 5.2).

Index build "is done by simply scanning the data block and sorting index
entries" in run order, writing fixed-size data blocks and computing the
offset array on the fly.  The builder is the single primitive shared by
index build (after a groom), merge, and evolve -- they differ only in where
the input entries come from and which level/zone the run lands in.

Two input shapes are accepted:

* :meth:`RunBuilder.build` takes decoded :class:`IndexEntry` objects
  (the legacy evolve, tests) and serializes each once;
* :meth:`RunBuilder.build_from_blobs` takes pre-serialized
  ``(sort_key, entry_blob)`` pairs (groom, streaming evolve, the K-way
  merge) and copies them verbatim -- no entry is decoded.  Everything
  derivable from raw sort keys (offset array, begin-TS range, Bloom
  filter, block index) is computed from the bytes; only the synopsis,
  whose per-column min/max needs decoded values, is supplied by the
  caller (merges pass the union of the input synopses).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.definition import IndexDefinition
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
        bloom_fpr: Optional[float] = None,
    ) -> None:
        if data_block_bytes <= 0:
            raise ValueError("data_block_bytes must be positive")
        self.definition = definition
        self.hierarchy = hierarchy
        self.data_block_bytes = data_block_bytes
        # When set, every built run carries a Bloom filter over its
        # distinct key bytes with this false-positive rate (extension).
        self.bloom_fpr = bloom_fpr

    # -- build -------------------------------------------------------------------------

    def build(
        self,
        run_id: str,
        entries: Iterable[IndexEntry],
        zone: Zone,
        level: int,
        min_groomed_id: int,
        max_groomed_id: int,
        persisted: bool = True,
        write_through_ssd: bool = True,
        spill_to_ssd: bool = False,
        ancestor_run_ids: Sequence[str] = (),
        presorted: bool = False,
    ) -> IndexRun:
        """Sort, slice into data blocks, write, and return the run handle.

        ``persisted`` selects the durable path (shared storage +
        write-through SSD); non-persisted runs go to memory only (section
        6.1), optionally spilling to SSD.
        """
        definition = self.definition
        # Encode once: each entry serializes to (sort_key, blob) a single
        # time and the run order comes from sorting the raw key slices.
        materialized = list(entries)
        synopsis = Synopsis.from_entries(definition, materialized)
        pairs = [entry.to_blob(definition) for entry in materialized]
        if not presorted:
            pairs.sort(key=lambda pair: pair[0])
        return self.build_from_blobs(
            run_id, pairs, synopsis, zone, level, min_groomed_id,
            max_groomed_id, persisted, write_through_ssd, spill_to_ssd,
            ancestor_run_ids,
        )

    def build_from_blobs(
        self,
        run_id: str,
        blob_pairs: Iterable[Tuple[bytes, bytes]],
        synopsis: Synopsis,
        zone: Zone,
        level: int,
        min_groomed_id: int,
        max_groomed_id: int,
        persisted: bool = True,
        write_through_ssd: bool = True,
        spill_to_ssd: bool = False,
        ancestor_run_ids: Sequence[str] = (),
    ) -> IndexRun:
        """Build a run from pre-serialized, pre-sorted entry blobs.

        ``blob_pairs`` yields ``(sort_key, entry_blob)`` in sort-key order
        (the shape :meth:`IndexRun.iter_raw` and the blob-level merge
        produce).  No entry is decoded: the offset array reads the hash
        from the first 8 sort-key bytes, begin-TS bounds come from the
        8-byte suffix, and the Bloom filter hashes raw user-key slices.
        """
        blob_pairs = list(blob_pairs)
        definition = self.definition
        # One pass over the pairs: slice them into data blocks of
        # ~data_block_bytes each while counting the offset-array buckets
        # (the sort key starts with the 8-byte big-endian hash column) and
        # tracking the beginTS range as raw descending sort-key suffixes.
        limit = self.data_block_bytes
        counts = [0] * definition.offset_array_size
        shift = 64 - definition.hash_bits
        block_metas: List[DataBlockMeta] = []
        block_payloads: List[bytes] = []
        offsets: List[int] = []
        sort_key_lengths: List[int] = []
        blobs: List[bytes] = []
        position = 0
        newest = oldest = (
            blob_pairs[0][0][-SORT_KEY_TS_BYTES:] if blob_pairs else b""
        )
        for sort_key, blob in blob_pairs:
            blob_len = len(blob)
            if position and position + blob_len > limit:
                self._seal_block(
                    offsets, sort_key_lengths, blobs, block_metas, block_payloads
                )
                offsets, sort_key_lengths, blobs = [], [], []
                position = 0
            offsets.append(position)
            sort_key_lengths.append(len(sort_key))
            blobs.append(blob)
            position += blob_len
            if counts:
                counts[int.from_bytes(sort_key[:8], "big") >> shift] += 1
            suffix = sort_key[-SORT_KEY_TS_BYTES:]
            if suffix < newest:
                newest = suffix
            elif suffix > oldest:
                oldest = suffix
        if blobs:
            self._seal_block(
                offsets, sort_key_lengths, blobs, block_metas, block_payloads
            )
        # offset[b] = ordinal of the first entry with hash high-bits >= b.
        offset_array = tuple(accumulate(counts, initial=0))[:-1]
        min_ts = begin_ts_of_sort_key(oldest) if blob_pairs else 0
        max_ts = begin_ts_of_sort_key(newest) if blob_pairs else 0

        bloom_blob = None
        if self.bloom_fpr is not None and blob_pairs:
            from repro.core.bloom import BloomFilter

            distinct = {sk[:-SORT_KEY_TS_BYTES] for sk, _blob in blob_pairs}
            bloom = BloomFilter.for_capacity(len(distinct), self.bloom_fpr)
            bloom.add_all(distinct)
            bloom_blob = bloom.to_bytes()

        header = RunHeader(
            run_id=run_id,
            zone=zone,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            entry_count=len(blob_pairs),
            synopsis=synopsis,
            offset_array=offset_array,
            block_meta=tuple(block_metas),
            min_begin_ts=min_ts,
            max_begin_ts=max_ts,
            persisted=persisted,
            ancestor_run_ids=tuple(ancestor_run_ids),
            bloom_blob=bloom_blob,
        )

        self._write_blocks(header, block_payloads, write_through_ssd, spill_to_ssd)
        return IndexRun(definition, header, self.hierarchy)

    def _seal_block(
        self,
        offsets: List[int],
        sort_key_lengths: List[int],
        blobs: List[bytes],
        metas: List[DataBlockMeta],
        payloads: List[bytes],
    ) -> None:
        payload = pack_data_block(offsets, sort_key_lengths, blobs)
        metas.append(
            DataBlockMeta(
                entry_count=len(blobs),
                # Every entry blob starts with its sort key.
                first_sort_key=blobs[0][: sort_key_lengths[0]],
                size_bytes=len(payload),
                # Recovery re-validates the run by checksumming raw
                # payloads against this -- no entry decodes on the clean
                # path (and the journal uses it for torn-write detection).
                checksum=block_checksum(payload),
            )
        )
        payloads.append(payload)

    def _write_blocks(
        self,
        header: RunHeader,
        payloads: List[bytes],
        write_through_ssd: bool,
        spill_to_ssd: bool,
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
            self.hierarchy.write_cached_only(header_block, spill_to_ssd)
            for block in data_blocks:
                self.hierarchy.write_cached_only(block, spill_to_ssd)


__all__ = ["RunBuilder", "DEFAULT_DATA_BLOCK_BYTES"]
